package main

import (
	"reflect"
	"testing"

	"muxwise"
	"muxwise/internal/kvcache"
)

// fakeRouter implements every optional router interface and counts calls.
type fakeRouter struct {
	picks, downs, ttfts, migrations int
	pick                            *muxwise.FleetReplica
}

func (f *fakeRouter) Name() string { return "fake" }
func (f *fakeRouter) Pick(*muxwise.Request, muxwise.FleetView) *muxwise.FleetReplica {
	f.picks++
	return f.pick
}
func (f *fakeRouter) ReplicaDown(int)                                 { f.downs++ }
func (f *fakeRouter) ObserveTTFT(int, muxwise.Time)                   { f.ttfts++ }
func (f *fakeRouter) SessionMigrated(int, int, int, []kvcache.PageID) { f.migrations++ }

// plainRouter implements only Router.
type plainRouter struct{}

func (plainRouter) Name() string { return "plain" }
func (plainRouter) Pick(*muxwise.Request, muxwise.FleetView) *muxwise.FleetReplica {
	return nil
}

type fakeScaler struct{ target muxwise.Time }

func (f fakeScaler) Name() string                     { return "fake-scaler" }
func (f fakeScaler) Decide(muxwise.FleetSnapshot) int { return 1 }
func (f fakeScaler) WithTarget(t muxwise.Time) muxwise.Autoscaler {
	return fakeScaler{target: t}
}

func TestTimingRouterForwards(t *testing.T) {
	inner := &fakeRouter{pick: &muxwise.FleetReplica{ID: 3}}
	p := &routeLog{log: newSpanLog()}
	var r muxwise.Router = &timingRouter{inner: inner, p: p}
	if r.Name() != "fake" {
		t.Errorf("Name = %q, want the wrapped policy's", r.Name())
	}
	req := &muxwise.Request{ID: 7, Session: 2, Turn: 1}
	if got := r.Pick(req, muxwise.FleetView{}); got != inner.pick {
		t.Errorf("Pick returned %v, want the wrapped policy's replica", got)
	}
	r.(muxwise.FleetObserver).ReplicaDown(1)
	r.(muxwise.TTFTObserver).ObserveTTFT(1, muxwise.Millisecond)
	r.(muxwise.MigrationObserver).SessionMigrated(2, 1, 3, nil)
	if inner.picks != 1 || inner.downs != 1 || inner.ttfts != 1 || inner.migrations != 1 {
		t.Errorf("forwarded calls = %+v, want one of each", *inner)
	}
	if d := p.log.durations("epp", "pick"); len(d) != 1 || p.log.spans[0].req != 7 {
		t.Errorf("pick spans = %v (%+v), want one carrying request 7", d, p.log.spans)
	}
	if want := []pickRec{{session: 2, turn: 1, replica: 3}}; !reflect.DeepEqual(p.picks, want) {
		t.Errorf("pick log = %+v, want %+v", p.picks, want)
	}

	// Forwarding to a policy without the optional interfaces is a no-op.
	bare := &timingRouter{inner: plainRouter{}, p: p}
	bare.ReplicaDown(1)
	bare.ObserveTTFT(1, 0)
	bare.SessionMigrated(0, 0, 1, nil)
	fallback := &muxwise.FleetReplica{ID: 5}
	bare.Pick(&muxwise.Request{Session: 2, Turn: 2}, muxwise.FleetView{Candidates: []*muxwise.FleetReplica{fallback}})
	if last := p.picks[len(p.picks)-1]; last.replica != 5 {
		t.Errorf("nil pick logged replica %d, want the cluster's fallback 5", last.replica)
	}
}

func TestTimingScalerForwards(t *testing.T) {
	p := &routeLog{log: newSpanLog()}
	s := &timingScaler{inner: fakeScaler{}, p: p}
	if s.Name() != "fake-scaler" || s.Decide(muxwise.FleetSnapshot{}) != 1 {
		t.Error("Name or Decide not forwarded")
	}
	re, ok := s.WithTarget(2 * muxwise.Second).(*timingScaler)
	if !ok {
		t.Fatal("WithTarget dropped the timing wrapper")
	}
	if got := re.inner.(fakeScaler).target; got != 2*muxwise.Second {
		t.Errorf("retargeted inner target = %v, want 2s", got)
	}
	if len(p.log.durations("cluster", "autoscale")) != 1 {
		t.Error("Decide recorded no span")
	}
}

func TestSessionHitFrac(t *testing.T) {
	p := &routeLog{picks: []pickRec{
		{session: 1, turn: 0, replica: 0},
		{session: 2, turn: 0, replica: 1},
		{session: 1, turn: 1, replica: 0}, // hit
		{session: 2, turn: 1, replica: 0}, // miss
		{session: 1, turn: 2, replica: 0}, // hit
		{session: 3, turn: 1, replica: 2}, // first seen: not counted
	}}
	if got := p.sessionHitFrac(); got != 2.0/3 {
		t.Errorf("sessionHitFrac = %g, want 2/3", got)
	}
	if got := (&routeLog{}).sessionHitFrac(); got != 0 {
		t.Errorf("empty sessionHitFrac = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	l := &spanLog{spans: []span{
		{layer: "experiment", parent: -1, start: 0, end: 100},
		{layer: "epp", parent: 0, start: 10, end: 30},
		{layer: "epp", parent: 0, start: 40, end: 50},
		{layer: "cluster", parent: 0, start: 60, end: 65},
		{layer: "metrics", parent: -1, start: 120, end: 140},
	}}
	got := map[string]layerTime{}
	for _, r := range l.selfTimes() {
		got[r.layer] = r
	}
	for layer, want := range map[string]layerTime{
		"experiment": {layer: "experiment", spans: 1, total: 100, self: 65},
		"epp":        {layer: "epp", spans: 2, total: 30, self: 30},
		"cluster":    {layer: "cluster", spans: 1, total: 5, self: 5},
		"metrics":    {layer: "metrics", spans: 1, total: 20, self: 20},
	} {
		if got[layer] != want {
			t.Errorf("%s: got %+v, want %+v", layer, got[layer], want)
		}
	}
	var nilLog *spanLog
	nilLog.end(nilLog.begin("x", "y", -1)) // a nil log records nothing
}
