package metrics

import (
	"testing"

	"muxwise/internal/sim"
)

func TestMergeCombinesRecorders(t *testing.T) {
	a := NewRecorder()
	a.Arrive(1, 0, 100, 0)
	a.Token(1, 10*sim.Millisecond)
	a.Token(1, 30*sim.Millisecond)
	a.Finish(1, 30*sim.Millisecond)
	a.PrefillDone(100)

	b := NewRecorder()
	b.Arrive(2, 0, 50, 0)
	b.Token(2, 20*sim.Millisecond)
	b.Token(2, 60*sim.Millisecond)
	b.Finish(2, 60*sim.Millisecond)
	b.PrefillDone(50)

	m := Merge(a, b)
	s := m.Summarize("fleet", sim.Second)
	if s.Requests != 2 || s.Finished != 2 {
		t.Fatalf("requests/finished = %d/%d, want 2/2", s.Requests, s.Finished)
	}
	if s.PrefillTokens != 150 || s.DecodeTokens != 4 {
		t.Fatalf("tokens = %d/%d, want 150/4", s.PrefillTokens, s.DecodeTokens)
	}
	if len(m.TBTSamples()) != 2 {
		t.Fatalf("merged TBT samples = %d, want 2", len(m.TBTSamples()))
	}
	// 20ms and 40ms gaps against a 30ms SLO → 50% attainment.
	if att := m.TBTAttainment(30 * sim.Millisecond); att != 0.5 {
		t.Fatalf("attainment = %v, want 0.5", att)
	}
}

func TestMergeSkipsNilAndRejectsDuplicates(t *testing.T) {
	a := NewRecorder()
	a.Arrive(1, 0, 10, 0)
	if got := len(Merge(a, nil).IDs()); got != 1 {
		t.Fatalf("merged ids = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Merge must panic on overlapping request IDs")
		}
	}()
	Merge(a, a)
}

// driveRecorder replays a simple deterministic lifecycle for ids so the
// merge-order tests have non-trivial samples in every window.
func driveRecorder(ids []int) *Recorder {
	r := NewRecorder()
	for _, id := range ids {
		base := sim.Time(id) * 100 * sim.Millisecond
		r.Arrive(id, base, 50+10*id, 0)
		r.PrefillDone(50 + 10*id)
		// First token 30ms after arrival, then tokens every (5+id)ms.
		at := base + 30*sim.Millisecond
		r.Token(id, at)
		for k := 0; k < 5; k++ {
			at += sim.Time(5+id) * sim.Millisecond
			r.Token(id, at)
		}
		r.Finish(id, at)
	}
	return r
}

// TestRollupMergeOrderInvariant is the determinism guard for windowed
// rollups: merged percentile summaries must not depend on the order the
// per-replica recorders were merged in.
func TestRollupMergeOrderInvariant(t *testing.T) {
	mk := func() []*Recorder {
		return []*Recorder{
			driveRecorder([]int{0, 3, 6}),
			driveRecorder([]int{1, 4, 7}),
			driveRecorder([]int{2, 5, 8}),
		}
	}
	bounds := []sim.Time{0, 250 * sim.Millisecond, 500 * sim.Millisecond, sim.Second}
	slo := 8 * sim.Millisecond

	a := mk()
	fwd := Merge(a[0], a[1], a[2])
	b := mk()
	rev := Merge(b[2], b[0], b[1])

	fw, rw := fwd.RollupSLO(bounds, slo), rev.RollupSLO(bounds, slo)
	if len(fw) != len(rw) {
		t.Fatalf("window counts differ: %d vs %d", len(fw), len(rw))
	}
	for i := range fw {
		if fw[i] != rw[i] {
			t.Fatalf("window %d differs by merge order:\n%+v\n%+v", i, fw[i], rw[i])
		}
	}
	fs, rs := fwd.Summarize("f", sim.Second), rev.Summarize("r", sim.Second)
	fs.Name, rs.Name = "", ""
	if fs != rs {
		t.Fatalf("summaries differ by merge order:\n%+v\n%+v", fs, rs)
	}
}

func TestRollupAssignsSamplesByObservationTime(t *testing.T) {
	r := NewRecorder()
	// Arrives in window 0, first token in window 1, finishes in window 2.
	r.Arrive(1, 50*sim.Millisecond, 100, 0)
	r.Token(1, 150*sim.Millisecond)
	r.Token(1, 220*sim.Millisecond) // TBT 70ms, lands in window 2
	r.Finish(1, 220*sim.Millisecond)
	bounds := []sim.Time{0, 100 * sim.Millisecond, 200 * sim.Millisecond, 300 * sim.Millisecond}
	w := r.RollupSLO(bounds, 50*sim.Millisecond)
	if w[0].Arrivals != 1 || w[0].Started != 0 || w[0].Finished != 0 {
		t.Fatalf("window 0 = %+v, want arrival only", w[0])
	}
	if w[1].Started != 1 || w[1].TTFT.N != 1 || w[1].TTFT.Max != 0.1 {
		t.Fatalf("window 1 = %+v, want the first token (TTFT 100ms)", w[1])
	}
	if w[2].Finished != 1 || w[2].TBT.N != 1 || w[2].Attainment() != 0 {
		t.Fatalf("window 2 = %+v, want the finish and a 70ms TBT miss", w[2])
	}
	if w[1].Attainment() != 1 {
		t.Fatalf("window 1 attainment = %v, want 1 (no TBT samples)", w[1].Attainment())
	}
	// The final bound is inclusive: a sample landing exactly on it stays
	// in the last window.
	r2 := NewRecorder()
	r2.Arrive(1, 0, 10, 0)
	r2.Token(1, 100*sim.Millisecond)
	r2.Token(1, 300*sim.Millisecond)
	r2.Finish(1, 300*sim.Millisecond)
	w2 := r2.Rollup([]sim.Time{0, 150 * sim.Millisecond, 300 * sim.Millisecond})
	if w2[1].Finished != 1 || w2[1].TBT.N != 1 {
		t.Fatalf("samples at the closing bound dropped: %+v", w2[1])
	}
	// A zero SLO keeps attainment at the no-samples convention.
	if w2[1].Attainment() != 1 {
		t.Fatalf("zero-SLO attainment = %v, want 1", w2[1].Attainment())
	}
}

func TestAbortAndHaltLifecycle(t *testing.T) {
	r := NewRecorder()
	r.Arrive(1, 0, 100, 0)
	r.Token(1, 10*sim.Millisecond)
	r.Token(1, 30*sim.Millisecond)
	r.Arrive(2, 0, 100, 0)
	r.Token(2, 15*sim.Millisecond)
	r.Token(2, 40*sim.Millisecond)
	r.Finish(2, 40*sim.Millisecond)

	if got := r.OpenIDs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("OpenIDs = %v, want [1]", got)
	}
	if !r.Abort(1) {
		t.Fatal("Abort(1) should remove the in-flight request")
	}
	if r.Abort(1) || r.Abort(2) || r.Abort(99) {
		t.Fatal("Abort must refuse repeated, finished and unknown ids")
	}
	s := r.Summarize("x", sim.Second)
	if s.Requests != 1 || s.Finished != 1 {
		t.Fatalf("after abort: %d/%d requests, want 1/1", s.Finished, s.Requests)
	}
	if len(r.TBTSamples()) != 1 {
		t.Fatalf("aborted request's TBT samples must be dropped, have %d", len(r.TBTSamples()))
	}
	if s.DecodeTokens != 2 {
		t.Fatalf("decode tokens = %d, want 2 (aborted request's rolled back)", s.DecodeTokens)
	}

	// The same ID can re-arrive (on another replica's recorder it would;
	// here, on the same one) and merge cleanly.
	r.Arrive(1, 0, 100, 0)
	r.Token(1, 200*sim.Millisecond)
	r.Finish(1, 200*sim.Millisecond)
	if got := r.Summarize("x", sim.Second).Finished; got != 2 {
		t.Fatalf("re-arrived request not counted: finished %d, want 2", got)
	}

	// Halt freezes everything except Abort.
	r.Halt()
	if !r.Halted() {
		t.Fatal("Halted() should report true")
	}
	r.Arrive(3, 0, 10, 0)
	r.Token(1, 300*sim.Millisecond)
	r.PrefillDone(100)
	r.Finish(1, 300*sim.Millisecond)
	s = r.Summarize("x", sim.Second)
	if s.Requests != 2 || s.PrefillTokens != 0 {
		t.Fatalf("halted recorder accepted samples: %+v", s)
	}
}

func TestOnFinishFiresOnce(t *testing.T) {
	r := NewRecorder()
	r.Arrive(1, 0, 10, 0)
	fired := 0
	r.OnFinish = func(id int, at sim.Time) { fired++ }
	r.Finish(1, sim.Second)
	r.Finish(1, 2*sim.Second)
	if fired != 1 {
		t.Fatalf("OnFinish fired %d times, want 1", fired)
	}
}
