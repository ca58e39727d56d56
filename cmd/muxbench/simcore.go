package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"muxwise/internal/perf"
)

// benchSchema versions BENCH_simcore.json; bump it when a field changes
// meaning so a stale baseline fails loudly.
const benchSchema = "muxwise/bench/v1"

// allocRegressionLimit is the primary gate: -simcore-check fails when
// any benchmark's allocs/request or bytes/request grows more than this
// fraction over the committed baseline. Allocation counts and sizes are
// machine-independent (unlike ns/op), so the gate is tight and portable.
const allocRegressionLimit = 0.20

// nsRegressionLimit gates ns/request, the wall-clock cost of one
// simulated request. Timing is machine-dependent, so the limit is
// looser than the alloc gate: it exists to catch order-of-magnitude
// hot-path regressions (a reintroduced per-event allocation, an
// accidental O(n) scan), not CI-runner jitter.
const nsRegressionLimit = 0.25

// benchRecord is one hot-path benchmark's committed result. The
// regression gate compares allocs/request and bytes/request (tight,
// machine-independent) and ns/request (loose — timing describes the
// machine that wrote the file, so its limit only catches
// order-of-magnitude regressions); ns/op and events/s are informational.
type benchRecord struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	ReqPerOp     float64 `json:"req_per_op"`
	EventsPerOp  float64 `json:"events_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerRequest float64 `json:"ns_per_request"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	AllocsPerReq float64 `json:"allocs_per_request"`
	BytesPerReq  float64 `json:"bytes_per_request"`
}

// benchFile is the BENCH_simcore.json layout.
type benchFile struct {
	Schema     string        `json:"schema"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// simcoreSuite names the committed hot-path benchmarks in digest order.
var simcoreSuite = []struct {
	name string
	fn   func(*testing.B)
}{
	{"EngineStep", perf.EngineStep},
	{"FleetTick", perf.FleetTick},
	{"RouterPick", perf.RouterPick},
	{"TraceGen", perf.TraceGen},
}

// runBench executes one benchmark body through testing.Benchmark and
// reduces it to the committed record.
func runBench(name string, fn func(*testing.B)) benchRecord {
	r := testing.Benchmark(fn)
	rec := benchRecord{
		Name:         name,
		NsPerOp:      float64(r.NsPerOp()),
		ReqPerOp:     r.Extra["req/op"],
		EventsPerOp:  r.Extra["events/op"],
		EventsPerSec: r.Extra["events/s"],
		NsPerRequest: r.Extra["ns/req"],
		BytesPerOp:   r.AllocedBytesPerOp(),
		AllocsPerOp:  r.AllocsPerOp(),
	}
	if rec.ReqPerOp > 0 {
		rec.AllocsPerReq = math.Round(float64(rec.AllocsPerOp)/rec.ReqPerOp*10) / 10
		rec.BytesPerReq = math.Round(float64(rec.BytesPerOp) / rec.ReqPerOp)
	}
	return rec
}

// writeDigest prints the markdown table the CI bench job appends to
// $GITHUB_STEP_SUMMARY.
func writeDigest(w io.Writer, bf benchFile) {
	fmt.Fprintln(w, "### simcore hot-path benchmarks")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| benchmark | ns/op | req/op | events/s | ns/req | allocs/req | bytes/req |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, b := range bf.Benchmarks {
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %.0f | %.0f | %.1f | %.0f |\n",
			b.Name, b.NsPerOp, b.ReqPerOp, b.EventsPerSec, b.NsPerRequest, b.AllocsPerReq, b.BytesPerReq)
	}
	fmt.Fprintln(w)
}

// checkBench gates the run against a committed baseline: any benchmark
// whose allocs/request or bytes/request grew past the limit fails, as
// does a suite
// mismatch (a hot path silently dropped from the file would otherwise
// un-gate itself).
func checkBench(got benchFile, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("load baseline (regenerate with -simcore-write): %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	if base.Schema != benchSchema {
		return fmt.Errorf("baseline schema %q, want %q (regenerate with -simcore-write)", base.Schema, benchSchema)
	}
	baseline := map[string]benchRecord{}
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var failures []string
	for _, g := range got.Benchmarks {
		w, ok := baseline[g.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not in baseline (regenerate with -simcore-write)", g.Name))
			continue
		}
		if w.AllocsPerReq > 0 && g.AllocsPerReq > w.AllocsPerReq*(1+allocRegressionLimit) {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/request %.1f vs baseline %.1f (+%.0f%%, limit +%.0f%%)",
				g.Name, g.AllocsPerReq, w.AllocsPerReq,
				(g.AllocsPerReq/w.AllocsPerReq-1)*100, allocRegressionLimit*100))
		}
		if w.BytesPerReq > 0 && g.BytesPerReq > w.BytesPerReq*(1+allocRegressionLimit) {
			failures = append(failures, fmt.Sprintf(
				"%s: bytes/request %.0f vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
				g.Name, g.BytesPerReq, w.BytesPerReq,
				(g.BytesPerReq/w.BytesPerReq-1)*100, allocRegressionLimit*100))
		}
		if w.NsPerRequest > 0 && g.NsPerRequest > w.NsPerRequest*(1+nsRegressionLimit) {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/request %.0f vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
				g.Name, g.NsPerRequest, w.NsPerRequest,
				(g.NsPerRequest/w.NsPerRequest-1)*100, nsRegressionLimit*100))
		}
	}
	if len(got.Benchmarks) < len(base.Benchmarks) {
		failures = append(failures, fmt.Sprintf("suite ran %d benchmarks, baseline has %d", len(got.Benchmarks), len(base.Benchmarks)))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "muxbench: REGRESSION:", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed", len(failures))
	}
	return nil
}

// runSimcore runs the suite, prints the digest, and optionally writes
// the baseline file and/or gates against an existing one.
func runSimcore(writePath, checkPath string) error {
	bf := benchFile{Schema: benchSchema}
	for _, s := range simcoreSuite {
		bf.Benchmarks = append(bf.Benchmarks, runBench(s.name, s.fn))
	}
	writeDigest(os.Stdout, bf)
	if writePath != "" {
		f, err := os.Create(writePath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(bf); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "muxbench: wrote %s\n", writePath)
	}
	if checkPath != "" {
		if err := checkBench(bf, checkPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "muxbench: allocs/request and bytes/request within +%.0f%%, ns/request within +%.0f%% of %s\n",
			allocRegressionLimit*100, nsRegressionLimit*100, checkPath)
	}
	return nil
}
