package metrics

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"muxwise/internal/sim"
)

// flatGap is one inter-token gap in the reference model's flat log: the
// request that emitted it, the emission instant, and the gap as a
// duration and in seconds.
type flatGap struct {
	id  int
	at  sim.Time
	dt  sim.Time
	gap float64
}

// flatReq is the reference model's view of one live request.
type flatReq struct {
	arrival, admitted, firstToken, lastToken, finished sim.Time
	done                                               bool
	tokens                                             int
}

// flatRecorder is the reference implementation the per-request storage
// is checked against: every gap goes to one flat log in emission order,
// an abort filters the log, and every statistic is computed from it.
type flatRecorder struct {
	reqs    map[int]*flatReq
	log     []flatGap
	decode  int64
	halted  bool
	crashed map[int]bool // ever aborted here (the Diagnose aux input)
}

func newFlatRecorder() *flatRecorder {
	return &flatRecorder{reqs: map[int]*flatReq{}, crashed: map[int]bool{}}
}

func (f *flatRecorder) arrive(id int, at sim.Time) {
	if f.halted || f.reqs[id] != nil {
		return
	}
	f.reqs[id] = &flatReq{arrival: at, admitted: -1, firstToken: -1}
}

func (f *flatRecorder) admitted(id int, at sim.Time) {
	q := f.reqs[id]
	if q == nil || f.halted || q.admitted >= 0 {
		return
	}
	q.admitted = at
}

func (f *flatRecorder) token(id int, at sim.Time) {
	q := f.reqs[id]
	if q == nil || f.halted {
		return
	}
	q.tokens++
	f.decode++
	if q.firstToken < 0 {
		q.firstToken = at
	} else {
		f.log = append(f.log, flatGap{id: id, at: at, dt: at - q.lastToken, gap: (at - q.lastToken).Seconds()})
	}
	q.lastToken = at
}

func (f *flatRecorder) finish(id int, at sim.Time) {
	q := f.reqs[id]
	if f.halted || q == nil || q.done {
		return
	}
	q.done, q.finished = true, at
}

func (f *flatRecorder) abort(id int) bool {
	q := f.reqs[id]
	if q == nil || q.done {
		return false
	}
	f.decode -= int64(q.tokens)
	delete(f.reqs, id)
	f.log = slices.DeleteFunc(f.log, func(g flatGap) bool { return g.id == id })
	f.crashed[id] = true
	return true
}

// mergeFlat pools reference recorders the way Merge pools real ones.
func mergeFlat(fs []*flatRecorder) *flatRecorder {
	m := newFlatRecorder()
	for _, f := range fs {
		for id, q := range f.reqs {
			m.reqs[id] = q
		}
		for id := range f.crashed {
			m.crashed[id] = true
		}
		m.log = append(m.log, f.log...)
		m.decode += f.decode
	}
	return m
}

func (f *flatRecorder) gaps() []float64 {
	out := make([]float64, len(f.log))
	for i, g := range f.log {
		out[i] = g.gap
	}
	return out
}

func (f *flatRecorder) tbtAttainment(slo sim.Time) float64 {
	if len(f.log) == 0 {
		return 1
	}
	ok := 0
	for _, g := range f.log {
		if g.gap <= slo.Seconds() {
			ok++
		}
	}
	return float64(ok) / float64(len(f.log))
}

// tbtBad marks the requests with at least one gap over a positive target.
func (f *flatRecorder) tbtBad(target sim.Time) map[int]bool {
	bad := map[int]bool{}
	if target > 0 {
		for _, g := range f.log {
			if g.gap > target.Seconds() {
				bad[g.id] = true
			}
		}
	}
	return bad
}

func flatTTFTMiss(q *flatReq, slo SLO) bool {
	return slo.TTFT > 0 && q.firstToken >= 0 && q.firstToken-q.arrival > slo.TTFT
}

func (f *flatRecorder) withinSLO(slo SLO) int {
	bad := f.tbtBad(slo.TBT)
	n := 0
	for id, q := range f.reqs {
		if q.done && q.firstToken >= 0 && !bad[id] && !flatTTFTMiss(q, slo) {
			n++
		}
	}
	return n
}

func (f *flatRecorder) diagnose(slo SLO, aux DiagnoseAux) MissBreakdown {
	bad := f.tbtBad(slo.TBT)
	var b MissBreakdown
	for id, q := range f.reqs {
		ttft := flatTTFTMiss(q, slo)
		if q.done && q.firstToken >= 0 && !bad[id] && !ttft {
			continue
		}
		b.Misses++
		switch {
		case aux.Crashed[id]:
			b.Crash++
		case aux.Held[id]:
			b.MigrationStall++
		case !q.done || q.firstToken < 0:
			b.Unfinished++
		case bad[id]:
			b.TBTViolation++
		case q.admitted >= q.arrival && q.firstToken-q.admitted > q.admitted-q.arrival:
			b.SlowPrefill++
		default:
			b.QueuedTooLong++
		}
	}
	return b
}

// window returns the index of the rollup window holding t, or -1: windows
// are [bounds[i], bounds[i+1]) with the last one closed.
func window(bounds []sim.Time, t sim.Time) int {
	last := len(bounds) - 1
	if t == bounds[last] {
		return last - 1
	}
	for i := 0; i < last; i++ {
		if bounds[i] <= t && t < bounds[i+1] {
			return i
		}
	}
	return -1
}

func (f *flatRecorder) rollup(bounds []sim.Time, slo sim.Time) []Window {
	n := len(bounds) - 1
	wins := make([]Window, n)
	ttft := make([][]float64, n)
	tbt := make([][]float64, n)
	for i := range wins {
		wins[i].From, wins[i].To = bounds[i], bounds[i+1]
	}
	for _, q := range f.reqs {
		if i := window(bounds, q.arrival); i >= 0 {
			wins[i].Arrivals++
		}
		if q.firstToken >= 0 {
			if i := window(bounds, q.firstToken); i >= 0 {
				wins[i].Started++
				ttft[i] = append(ttft[i], (q.firstToken - q.arrival).Seconds())
			}
		}
		if q.done {
			if i := window(bounds, q.finished); i >= 0 {
				wins[i].Finished++
			}
		}
	}
	for _, g := range f.log {
		i := window(bounds, g.at)
		if i < 0 {
			continue
		}
		tbt[i] = append(tbt[i], g.gap)
		if slo > 0 {
			wins[i].tbtN++
			if g.gap <= slo.Seconds() {
				wins[i].tbtOK++
			}
		}
	}
	for i := range wins {
		wins[i].TTFT = quantiles(ttft[i])
		wins[i].TBT = quantiles(tbt[i])
	}
	return wins
}

// drive plays a random interleaving of recorder calls against both the
// real recorders and their reference twins. Request IDs follow the fleet
// contract Merge relies on: an ID is live on at most one recorder, and
// only an aborted ID may arrive again (on any recorder).
func drive(t *testing.T, rng *rand.Rand, recs []*Recorder, flat []*flatRecorder) sim.Time {
	t.Helper()
	const ids = 40
	home := map[int]int{} // live ID -> recorder index
	used := map[int]bool{}
	now := sim.Time(0)
	for step := 0; step < 600; step++ {
		// Zero steps give equal instants and gaps, the ties a sort or a
		// window bound must treat consistently.
		now += sim.Time(rng.IntN(4)) * sim.Time(rng.Int64N(int64(40*sim.Millisecond)))
		k := rng.IntN(len(recs))
		id := rng.IntN(ids)
		switch op := rng.IntN(100); {
		case op < 15:
			if _, live := home[id]; live || (used[id] && rng.IntN(2) == 0) {
				continue
			}
			// The output-length hint is random, so records both outgrow
			// and underfill their reserved emission slots.
			recs[k].Arrive(id, now, 1+rng.IntN(4000), rng.IntN(20))
			flat[k].arrive(id, now)
			if !recs[k].Halted() {
				home[id], used[id] = k, true
			}
		case op < 20:
			if h, live := home[id]; live {
				recs[h].Admitted(id, now)
				flat[h].admitted(id, now)
			}
		case op < 85:
			if h, live := home[id]; live {
				k = h
			}
			recs[k].Token(id, now)
			flat[k].token(id, now)
		case op < 93:
			if h, live := home[id]; live {
				k = h
			}
			recs[k].Finish(id, now)
			flat[k].finish(id, now)
		case op < 99:
			h, live := home[id]
			if !live {
				h = k
			}
			got, want := recs[h].Abort(id), flat[h].abort(id)
			if got != want {
				t.Fatalf("Abort(%d) on recorder %d reported %v, reference %v", id, h, got, want)
			}
			if got {
				delete(home, id)
			}
		default:
			recs[k].Halt()
			flat[k].halted = true
		}
	}
	return now
}

// checkAgainstFlat asserts that every statistic the recorder derives from
// its per-request storage equals the reference computed from the flat log.
func checkAgainstFlat(t *testing.T, label string, rng *rand.Rand, r *Recorder, f *flatRecorder, end sim.Time) {
	t.Helper()
	want := quantiles(f.gaps())
	s := r.Summarize(label, end)
	if s.TBT != want {
		t.Fatalf("%s: Summarize TBT %+v, reference %+v", label, s.TBT, want)
	}
	if s.Requests != len(f.reqs) || s.DecodeTokens != f.decode {
		t.Fatalf("%s: requests %d decode %d, reference %d / %d", label, s.Requests, s.DecodeTokens, len(f.reqs), f.decode)
	}
	got := r.TBTSamples()
	if cap(got) != len(got) {
		t.Fatalf("%s: TBTSamples sized for %d samples, holds %d", label, cap(got), len(got))
	}
	sort.Float64s(got)
	ref := f.gaps()
	sort.Float64s(ref)
	if !slices.Equal(got, ref) {
		t.Fatalf("%s: TBTSamples differ from the reference log (%d vs %d samples)", label, len(got), len(ref))
	}
	// Besides fixed targets, put the TBT target exactly on the largest
	// gap and on a random one, and 1ns below each: a request whose
	// largest gap equals the target meets it, one 1ns over misses it.
	tbts := []sim.Time{0, 1, 20 * sim.Millisecond, 40 * sim.Millisecond, 80 * sim.Millisecond}
	if len(f.log) > 0 {
		top := f.log[0].dt
		for _, g := range f.log {
			top = max(top, g.dt)
		}
		pick := f.log[rng.IntN(len(f.log))].dt
		tbts = append(tbts, top, top-1, pick, pick-1)
	}
	for _, tbt := range tbts {
		if g, w := r.TBTAttainment(tbt), f.tbtAttainment(tbt); g != w {
			t.Fatalf("%s: TBTAttainment(%v) %v, reference %v", label, tbt, g, w)
		}
		for _, ttft := range []sim.Time{0, 30 * sim.Millisecond, 200 * sim.Millisecond} {
			slo := SLO{TTFT: ttft, TBT: tbt}
			if g, w := r.WithinSLO(slo), f.withinSLO(slo); g != w {
				t.Fatalf("%s: WithinSLO(%+v) %d, reference %d", label, slo, g, w)
			}
			aux := DiagnoseAux{Crashed: f.crashed}
			if g, w := r.Diagnose(slo, aux), f.diagnose(slo, aux); g != w {
				t.Fatalf("%s: Diagnose(%+v) %+v, reference %+v", label, slo, g, w)
			}
		}
	}
	for trial := 0; trial < 4; trial++ {
		bounds := randomBounds(rng, end+1)
		slo := sim.Time(rng.Int64N(int64(100 * sim.Millisecond)))
		got, want := r.RollupSLO(bounds, slo), f.rollup(bounds, slo)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: RollupSLO(%v, %v)\n got %+v\nwant %+v", label, bounds, slo, got, want)
		}
		for i := range got {
			if got[i].Attainment() != want[i].Attainment() {
				t.Fatalf("%s: window %d attainment %v, reference %v", label, i, got[i].Attainment(), want[i].Attainment())
			}
		}
	}
}

// TestPropertyPerRequestStorageMatchesFlatLog: per-request TBT storage
// (emission times, a running max gap, dropped with the record on abort,
// shared on merge) yields exactly — == on floats — the statistics a flat
// pooled gap log yields, over random interleavings of every recorder
// call on one to four recorders and their merge.
func TestPropertyPerRequestStorageMatchesFlatLog(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xF1A7))
		n := 1 + rng.IntN(4)
		recs := make([]*Recorder, n)
		flat := make([]*flatRecorder, n)
		for i := range recs {
			recs[i], flat[i] = NewRecorder(), newFlatRecorder()
		}
		end := drive(t, rng, recs, flat)
		for i := range recs {
			checkAgainstFlat(t, "replica", rng, recs[i], flat[i], end)
		}
		checkAgainstFlat(t, "merged", rng, Merge(recs...), mergeFlat(flat), end)
	}
}
