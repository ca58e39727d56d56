package main

import (
	"errors"
	"math"
	"testing"

	"muxwise"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1_000_000, 99.99},
		{100_000, 99.99},
		{99_999, 99.9},
		{10_000, 99.9},
		{9_999, 99},
		{1_000, 99}, // exactly 10 beyond p99
		{999, 90},   // 9 beyond p99
		{100, 90},
		{99, 50},
		{0, 50},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := supportedTail(c.n); p > 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond, want >= %d", c.n, p, beyond(c.n, p), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(200 - i) // 200 .. 1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {100, 200}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if s[0] != 200 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestBisectFindsKnee(t *testing.T) {
	const knee = 3.7
	var probed []float64
	feasible := func(x float64) (bool, error) {
		probed = append(probed, x)
		return x <= knee, nil
	}
	best, count, err := bisect(feasible, 1, 8, bisectSteps)
	if err != nil {
		t.Fatal(err)
	}
	if count != bisectSteps+1 || len(probed) != count {
		t.Errorf("count = %d (probed %d), want %d", count, len(probed), bisectSteps+1)
	}
	resolution := math.Pow(8, 1/math.Pow(2, bisectSteps))
	if best > knee || best < knee/resolution {
		t.Errorf("best = %g, want within [%g, %g]", best, knee/resolution, knee)
	}
	for i := 1; i < len(probed); i++ {
		if probed[i] == probed[i-1] {
			t.Errorf("probe %d repeats load %g", i, probed[i])
		}
	}
}

func TestBisectEdges(t *testing.T) {
	never := func(float64) (bool, error) { return false, nil }
	if _, count, err := bisect(never, 1, 8, bisectSteps); !errors.Is(err, errFloorInfeasible) || count != 1 {
		t.Errorf("infeasible floor: err=%v count=%d, want errFloorInfeasible after 1 probe", err, count)
	}
	always := func(float64) (bool, error) { return true, nil }
	best, _, err := bisect(always, 1, 8, bisectSteps)
	if err != nil || best < 8/math.Pow(8, 1/math.Pow(2, bisectSteps)) || best > 8 {
		t.Errorf("always feasible: best=%g err=%v, want just under the ceiling", best, err)
	}
	boom := errors.New("boom")
	failing := func(x float64) (bool, error) {
		if x > 1 {
			return false, boom
		}
		return true, nil
	}
	if _, _, err := bisect(failing, 1, 8, bisectSteps); !errors.Is(err, boom) {
		t.Errorf("probe error: got %v, want it passed through", err)
	}
}

// TestGoodputBelowReference runs the goodput search on a small ShareGPT
// engine whose reference load is far past its knee: the search must fall
// back to [reference/4, reference] rather than fail.
func TestGoodputBelowReference(t *testing.T) {
	base, err := workloadByName("engine-sharegpt")
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	w.ref, w.hi = 60, 120
	w.gen = func(seed uint64, rate float64) *muxwise.Trace {
		return muxwise.ShareGPT(seed, 1000).WithPoissonArrivals(seed, rate)
	}
	b := &bench{w: &w, seed: 1}
	tr := w.gen(b.seed, w.ref)
	ref := b.replay(muxwise.NewExperiment(w.options("", "")...), tr, nil, "reference")
	if ref == nil || metSLO(ref, tr) >= sloTarget {
		t.Fatalf("reference at %g req/s should miss the SLO (met %g)", w.ref, metSLO(ref, tr))
	}
	g, probes, err := b.goodput(ref, tr)
	if err != nil {
		t.Fatal(err)
	}
	if g.lo != w.ref/4 || g.hi != w.ref || g.load < g.lo || g.load >= w.ref || g.rps != g.load {
		t.Errorf("goodput = %+v after %d loads, want a rate in [%g, %g)", g, probes, w.ref/4, w.ref)
	}
	if b.failed != 0 {
		t.Errorf("failures: %v", b.failures)
	}
}
