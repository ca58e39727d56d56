package main

import (
	"reflect"
	"testing"

	"muxwise"
	"muxwise/internal/cluster"
)

// bareRouter wraps a router but hides its optional observer interfaces,
// the mistake the traced run's equality check exists to catch.
type bareRouter struct{ inner muxwise.Router }

func (b bareRouter) Name() string { return b.inner.Name() }
func (b bareRouter) Pick(r *muxwise.Request, v muxwise.FleetView) *muxwise.FleetReplica {
	return b.inner.Pick(r, v)
}

// TestTracedMatchesUntracedOnlyWithFullForwarding runs the fleet workload's
// deployment under adaptive-ttft, a policy that learns from the TTFT
// observer interface, so hiding that interface changes placement.
func TestTracedMatchesUntracedOnlyWithFullForwarding(t *testing.T) {
	base, err := workloadByName("fleet-multiturn")
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	w.router = "adaptive-ttft"
	tr := func() *muxwise.Trace { return muxwise.MixedBursty(3, 120, 0.6) }
	run := func(router string, fr *muxwise.FlightRecorder) fingerprint {
		t.Helper()
		opts := w.options(router, "")
		if fr != nil {
			opts = append(opts, muxwise.WithTrace(fr))
		}
		rep, err := muxwise.NewExperiment(opts...).Run(tr())
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintOf(rep)
	}
	want := run("", nil)

	p := &routeLog{log: newSpanLog()}
	rname, _, err := registerTiming(w.router, w.scaler, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(rname, muxwise.NewFlightRecorder()); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run with timing wrappers differs from the untraced run:\n got %+v\nwant %+v", got.Summary, want.Summary)
	}
	if len(p.picks) == 0 {
		t.Error("the timing router saw no picks")
	}

	policy, err := cluster.ResolvePolicy(w.router)
	if err != nil {
		t.Fatal(err)
	}
	if err := muxwise.RegisterRouter("bare-"+w.router, func() muxwise.Router { return bareRouter{policy()} }); err != nil {
		t.Fatal(err)
	}
	if got := run("bare-"+w.router, nil); reflect.DeepEqual(got, want) {
		t.Error("a wrapper hiding the observer interfaces left results unchanged; the equality check would not catch it")
	}
}
