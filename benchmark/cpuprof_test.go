package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFrameModule(t *testing.T) {
	for fn, want := range map[string]string{
		"muxwise/internal/sim.(*Sim).RunUntil":               "sim",
		"muxwise/internal/cluster/epp.(*Pipeline).Pick":      "epp",
		"muxwise/internal/cluster.(*Cluster).Submit":         "cluster",
		"muxwise/internal/gpu.waterfillInto":                 "gpu",
		"muxwise/internal/roofline.(*Model).DecodeSolo":      "roofline",
		"muxwise/internal/metrics.(*Recorder).Summarize":     "metrics",
		"muxwise/internal/kvcache.(*Pool).Match":             "kvcache",
		"muxwise/internal/workload.ShareGPT":                 "workload",
		"muxwise/internal/obs.(*Tracer).emit":                "obs",
		"main.(*timingRouter).Pick":                          "bench",
		"muxwise/internal/par.RunIndexed[...]":               "",
		"muxwise.(*Experiment).Run":                          "",
		"sort.Float64s":                                      "",
		"muxwise/internal/simx.F":                            "",
		"muxwise/internal/estimator.(*Estimator).Fork.func1": "estimator",
	} {
		if got := frameModule(fn); got != want {
			t.Errorf("frameModule(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStackModule(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "muxwise/internal/metrics.(*Recorder).Token"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "muxwise/internal/kvcache.(*node).child"}, "runtime"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		// Standard library and unlisted muxwise frames go to their caller.
		{[]string{"sort.insertionSort", "sort.Float64s", "muxwise/internal/metrics.quantiles"}, "metrics"},
		{[]string{"muxwise/internal/par.run", "muxwise.(*Experiment).Run", "main.(*bench).replay"}, "bench"},
		{[]string{"math.Exp", "muxwise/internal/roofline.(*Model).rates", "muxwise/internal/core.(*Engine).chooseConfig"}, "roofline"},
		// A runtime frame that is not the leaf is not the runtime's time.
		{[]string{"muxwise/internal/sim.(*Sim).popMin", "runtime.main"}, "sim"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	} {
		if got := stackModule(c.stack); got != c.want {
			t.Errorf("stackModule(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var spinSink float64

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

func TestModuleSharesParsesAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples in half a second of spinning")
	}
	found := false
	for i, st := range stacks {
		if weights[i] <= 0 {
			t.Errorf("sample %d has weight %g", i, weights[i])
		}
		for _, fn := range st {
			if funcPackage(fn) != "" && bytes.Contains([]byte(fn), []byte("spin")) {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sampled stack passes through spin")
	}
	shares, err := moduleShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if _, err := moduleShares([]byte("not gzip")); err == nil {
		t.Error("a malformed profile parsed without error")
	}
}
