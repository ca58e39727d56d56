package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 || !regexp.MustCompile(`^[A-Za-z0-9]`).MatchString(d.name) {
			t.Errorf("metric name %q: want [A-Za-z0-9_.-]+, at most 64, starting with a letter or digit", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
		if !unitName.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if d.kind != host && d.kind != simulated {
			t.Errorf("metric %s: kind = %q", d.name, d.kind)
		}
	}
	for _, m := range cpuModules {
		if !seen["cpu."+m+"_frac"] {
			t.Errorf("module %s has no cpu share metric", m)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestBenchmarkFileMatches keeps BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	var bf benchmarkFile
	keys := readJSON(t, "../BENCHMARK.json", &bf)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(sortedKeys(keys), want) {
		t.Errorf("top-level keys = %v, want %v", sortedKeys(keys), want)
	}
	if !slices.Equal(bf.Paths, []string{"benchmark"}) || !slices.Equal(bf.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v / paths %v do not name this directory's launcher", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program %q %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want at most 200", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: file %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g, want present and the largest (%g)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: file %+v, program %+v", i, m, d)
		}
	}
}

// ledger mirrors ledger.json, the benchmark's record of what each
// workload deploys and how the metrics relate.
type ledger struct {
	About     string `json:"about"`
	Usage     string `json:"usage"`
	LoadModel string `json:"load_model"`
	HostTime  string `json:"host_replay_time"`
	Seeds     struct {
		Default int    `json:"default"`
		HeldOut int    `json:"held_out"`
		Note    string `json:"note"`
	} `json:"seeds"`
	Workloads []struct {
		Name       string          `json:"name"`
		Why        string          `json:"why"`
		Deployment json.RawMessage `json:"deployment"`
		SLO        struct {
			TTFTMs float64 `json:"ttft_ms"`
			TBTMs  float64 `json:"tbt_ms"`
		} `json:"slo"`
		Load struct {
			Knob      string     `json:"knob"`
			Reference float64    `json:"reference"`
			Requests  string     `json:"requests"`
			Bracket   [2]float64 `json:"goodput_bracket"`
		} `json:"load"`
		Knee string `json:"measured_knee"`
		Note string `json:"note"`
	} `json:"workloads"`
	Metrics []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		Kind   string `json:"kind"`
		Note   string `json:"note"`
	} `json:"metrics"`
	LayerMap []struct {
		Layer   string   `json:"layer"`
		Metrics []string `json:"metrics"`
		Moves   []string `json:"moves"`
		// MovesHost names the host cost the layer moves that no bound
		// guards.
		MovesHost string   `json:"moves_host"`
		On        []string `json:"on"`
	} `json:"layer_map"`
}

// TestLedgerMatches keeps ledger.json in step with the program.
func TestLedgerMatches(t *testing.T) {
	var l ledger
	readJSON(t, "ledger.json", &l)
	if l.Seeds.HeldOut == 0 || l.Seeds.HeldOut == l.Seeds.Default {
		t.Errorf("seeds = %+v, want a held-out seed apart from the default", l.Seeds)
	}
	if len(l.Workloads) != len(workloads) {
		t.Fatalf("ledger lists %d workloads, the program %d", len(l.Workloads), len(workloads))
	}
	names := map[string]bool{"all": true}
	for i, w := range workloads {
		lw := l.Workloads[i]
		names[w.name] = true
		if lw.Name != w.name || lw.Why != w.why || lw.Load.Knob != w.knob || lw.Load.Reference != w.ref ||
			lw.Load.Bracket != [2]float64{w.ref, w.hi} ||
			lw.SLO.TTFTMs != w.dep.SLO.TTFT.Milliseconds() || lw.SLO.TBTMs != w.dep.SLO.TBT.Milliseconds() {
			t.Errorf("ledger workload %d disagrees with the program's %s", i, w.name)
		}
	}
	all := append(slices.Clone(endToEnd), perLayer...)
	if len(l.Metrics) != len(all) {
		t.Fatalf("ledger lists %d metrics, the program %d", len(l.Metrics), len(all))
	}
	isE2E, isLayer := map[string]bool{}, map[string]bool{}
	for i, d := range all {
		if m := l.Metrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Kind != d.kind {
			t.Errorf("ledger metric %d %+v disagrees with the program's %+v", i, m, d)
		}
		if i < len(endToEnd) {
			isE2E[d.name] = true
		} else {
			isLayer[d.name] = true
		}
	}
	mapped := map[string]bool{}
	for _, e := range l.LayerMap {
		for _, m := range e.Metrics {
			if !isLayer[m] {
				t.Errorf("layer %s maps unknown per-layer metric %q", e.Layer, m)
			}
			mapped[m] = true
		}
		for _, m := range e.Moves {
			if !isE2E[m] && m != "none" {
				t.Errorf("layer %s moves unknown end-to-end metric %q", e.Layer, m)
			}
		}
		for _, w := range e.On {
			if !names[w] {
				t.Errorf("layer %s names unknown workload %q", e.Layer, w)
			}
		}
	}
	for name := range isLayer {
		if !mapped[name] {
			t.Errorf("per-layer metric %s is missing from the layer map", name)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
