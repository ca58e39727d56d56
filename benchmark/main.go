// Command benchmark is the muxwise repository benchmark. It replays one
// seeded serving workload through the public muxwise.Experiment API, one
// replay at a time, checks every replay's output, and prints each metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}
//
// With --trace 0 it measures the end-to-end metrics: set-up time and
// peak heap on this machine (host numbers; the replay time is printed
// beside them without a bound), and the simulated latency, SLO
// attainment, goodput and GPU cost of the modelled deployment (simulated
// numbers, deterministic for a seed). With
// --trace 1 it makes a separate traced run that reports per-layer
// numbers: a flight recorder, timing wrappers on the router and
// autoscaler, the benchmark's own spans around calls into each module,
// and a CPU profile.
//
// Build and run it from the checkout root with benchmark/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"muxwise"
	"muxwise/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// maxProcs caps GOMAXPROCS so machines with more cores run the replays
// the way a two-core machine does; the simulator itself is one goroutine.
const maxProcs = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "engine-sharegpt", "workload to replay, or all to replay each in turn")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 4, "how long to repeat the timed replay")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	out := fs.String("out", "", "directory for the traced run's spans and CPU profile (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		ws = []*workload{w}
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	code := 0
	for i, w := range ws {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, stdout: stdout}
		defs := endToEnd
		var err error
		if *trace == 1 {
			defs = perLayer
			err = b.layers(*out)
		} else {
			err = b.endToEnd()
		}
		if err == nil {
			err = b.print(defs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		} else if b.failed > 0 {
			code = 1
		}
	}
	return code
}

// value is one measured metric with how it was obtained.
type value struct {
	v    float64
	note string
}

// bench is one benchmark run: a workload at a seed, its measured values,
// and the tally of checked operations.
type bench struct {
	w      *workload
	seed   uint64
	budget time.Duration
	stdout io.Writer
	log    *spanLog // the traced run's spans; nil otherwise

	values    map[string]value
	attempted int
	failed    int
	failures  []string
	extra     []string // further report lines (the traced run's tables)
}

// set records a metric's value and a note on how it was measured.
func (b *bench) set(name string, v float64, format string, args ...any) {
	if b.values == nil {
		b.values = map[string]value{}
	}
	b.values[name] = value{v: v, note: fmt.Sprintf(format, args...)}
}

// fail records a failed operation; the caller has counted the attempt.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// check counts one output check as an operation and fails it unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// fingerprint is the part of a report that must repeat exactly for the
// same seed, traced or not.
type fingerprint struct {
	Summary    muxwise.Summary
	MissCauses muxwise.MissBreakdown
	CacheHit   float64
	Loop       sim.LoopStats
}

func fingerprintOf(rep *muxwise.Report) fingerprint {
	if rep.Fleet != nil {
		return fingerprint{rep.Summary, rep.MissCauses, rep.Fleet.CacheHit, rep.Fleet.Loop}
	}
	return fingerprint{rep.Summary, rep.MissCauses, rep.Engine.CacheHit, rep.Engine.Loop}
}

// checkReport applies the output checks every replay must pass.
func checkReport(rep *muxwise.Report, tr *muxwise.Trace) error {
	if rep.Summary.Requests != tr.Len() {
		return fmt.Errorf("summary counts %d requests, trace has %d", rep.Summary.Requests, tr.Len())
	}
	mc := rep.MissCauses
	sum := mc.QueuedTooLong + mc.SlowPrefill + mc.TBTViolation + mc.MigrationStall + mc.Crash + mc.Unfinished + mc.Other
	if sum != mc.Misses {
		return fmt.Errorf("miss causes sum to %d, misses are %d", sum, mc.Misses)
	}
	if mc.Other != 0 {
		return fmt.Errorf("%d misses have no attributed cause", mc.Other)
	}
	return nil
}

// replay runs one checked replay; want, when non-nil, is the fingerprint
// the replay must reproduce. A failed check is counted and returns a nil
// report only when the run itself errored.
func (b *bench) replay(exp *muxwise.Experiment, tr *muxwise.Trace, want *fingerprint, what string) *muxwise.Report {
	b.attempted++
	rep, err := exp.Run(tr)
	if err != nil {
		b.fail("%s: %v", what, err)
		return nil
	}
	if err := checkReport(rep, tr); err != nil {
		b.fail("%s: %v", what, err)
	} else if want != nil && !reflect.DeepEqual(fingerprintOf(rep), *want) {
		b.fail("%s: simulated results differ from the reference replay of the same seed", what)
	}
	return rep
}

// print writes the human-readable report and, last, the JSON line.
func (b *bench) print(defs []metricDef) error {
	w := b.w
	fmt.Fprintf(b.stdout, "muxwise benchmark · workload %s · seed %d · GOMAXPROCS %d\n",
		w.name, b.seed, runtime.GOMAXPROCS(0))
	kind := "engine MuxWise"
	if w.fleet {
		kind = fmt.Sprintf("fleet %d× MuxWise, router %s, autoscaler %s (2-8 replicas)", fleetReplicas, w.router, w.scaler)
	}
	fmt.Fprintf(b.stdout, "deployment: %s · %d× %s per replica · %s · cost model %s · SLO TTFT %v TBT %v\n",
		kind, w.dep.GPUs, w.dep.Hardware, w.dep.Model, w.cost, w.dep.SLO.TTFT, w.dep.SLO.TBT)
	for _, k := range []string{host, simulated} {
		if k == host {
			fmt.Fprintln(b.stdout, "\nhost numbers (this machine; subject to noise)")
		} else {
			fmt.Fprintln(b.stdout, "\nsimulated numbers (deterministic for the seed)")
		}
		for _, d := range defs {
			if d.kind != k {
				continue
			}
			v, ok := b.values[d.name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			fmt.Fprintf(b.stdout, "  %-26s %14.6g %-9s %s\n", d.name, v.v, d.unit, v.note)
		}
	}
	for _, l := range b.extra {
		fmt.Fprintln(b.stdout, l)
	}
	fmt.Fprintf(b.stdout, "\nchecks: %d operations attempted, %d failed\n", b.attempted, b.failed)
	for _, f := range b.failures {
		fmt.Fprintln(b.stdout, "  FAILED:", f)
	}

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	for _, d := range defs {
		ms[d.name] = jm{b.values[d.name].v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.stdout, "%s\n", line)
	return err
}

var errNoReference = errors.New("reference replay failed; nothing to measure")
