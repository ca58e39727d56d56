package metrics

import (
	"fmt"
	"sort"

	"muxwise/internal/sim"
)

// Merge combines per-replica recorders into one fleet-wide view, so the
// cluster runner can report the same Summary / attainment statistics over
// a whole deployment that a single-instance run reports for one engine.
//
// Request IDs must be disjoint across the inputs (a cluster routes each
// request to exactly one replica, so per-replica recorders never share
// an ID); a duplicate panics rather than producing a silently
// half-merged summary. The merged recorder shares the per-request
// records of its inputs and must be treated as read-only.
func Merge(recs ...*Recorder) *Recorder {
	m := NewRecorder()
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, id := range r.ids {
			if id == tombstoneID {
				continue
			}
			if _, dup := m.reqs[id]; dup {
				panic(fmt.Sprintf("metrics: Merge saw request ID %d twice; inputs must be disjoint", id))
			}
			rec := r.reqs[id]
			m.reqs[id] = rec
			m.ids = append(m.ids, id)
			if !rec.done {
				m.open++
			}
		}
		m.tbtN += r.tbtN
		m.prefillTokens += r.prefillTokens
		m.decodeTokens += r.decodeTokens
	}
	return m
}

// Window is a time-bounded rollup of recorder samples — one fleet epoch
// or one fixed-width slice of a run. Sample assignment follows the time
// the observation was made: arrivals by arrival time, TTFT by
// first-token time, TBT by token-emission time, completions by finish
// time. A request spanning a boundary therefore contributes to every
// window it was active in, which is exactly what per-epoch goodput needs.
type Window struct {
	From, To sim.Time

	Arrivals int // requests that arrived inside the window
	Started  int // requests whose first token landed inside the window
	Finished int // requests that completed inside the window

	TTFT Quantiles
	TBT  Quantiles

	// tbtOK/tbtN count the window's TBT samples inside the SLO given to
	// RollupSLO; Attainment reads them.
	tbtOK, tbtN int
}

// Attainment returns the window's TBT SLO attainment (1 when the window
// holds no samples, matching TBTAttainment's convention). It is only
// meaningful on windows produced by RollupSLO.
func (w Window) Attainment() float64 {
	if w.tbtN == 0 {
		return 1
	}
	return float64(w.tbtOK) / float64(w.tbtN)
}

// Rollup slices the recorder's samples into the half-open windows
// [bounds[i], bounds[i+1]). Bounds must be ascending; the last window is
// closed at bounds[len-1]. The result is independent of the order
// requests were recorded (each window's quantiles sort its samples), so
// merged fleet recorders roll up identically regardless of replica merge
// order.
func (r *Recorder) Rollup(bounds []sim.Time) []Window {
	return r.RollupSLO(bounds, 0)
}

// RollupSLO is Rollup with per-window TBT attainment against tbtSLO
// (a zero SLO leaves attainment at its no-samples convention).
func (r *Recorder) RollupSLO(bounds []sim.Time, tbtSLO sim.Time) []Window {
	if len(bounds) < 2 {
		return nil
	}
	n := len(bounds) - 1
	wins := make([]Window, n)
	ttft := make([][]float64, n)
	tbt := make([][]float64, n)
	for i := range wins {
		wins[i].From, wins[i].To = bounds[i], bounds[i+1]
	}
	// locate returns the window index containing t, or -1. The final
	// bound is inclusive: the last window is closed, so a sample landing
	// exactly on the run's end instant is not dropped.
	locate := func(t sim.Time) int {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > t }) - 1
		if i == n && t == bounds[n] {
			return n - 1
		}
		if i < 0 || i >= n {
			return -1
		}
		return i
	}
	target := tbtSLO.Seconds()
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		rec := r.reqs[id]
		if i := locate(rec.arrival); i >= 0 {
			wins[i].Arrivals++
		}
		if rec.firstToken >= 0 {
			if i := locate(rec.firstToken); i >= 0 {
				wins[i].Started++
				ttft[i] = append(ttft[i], (rec.firstToken - rec.arrival).Seconds())
			}
		}
		if rec.done {
			if i := locate(rec.finished); i >= 0 {
				wins[i].Finished++
			}
		}
		prev := rec.firstToken
		for _, at := range rec.emits {
			v := (at - prev).Seconds()
			prev = at
			i := locate(at)
			if i < 0 {
				continue
			}
			tbt[i] = append(tbt[i], v)
			if tbtSLO > 0 {
				wins[i].tbtN++
				if v <= target {
					wins[i].tbtOK++
				}
			}
		}
	}
	for i := range wins {
		wins[i].TTFT = quantiles(ttft[i])
		wins[i].TBT = quantiles(tbt[i])
	}
	return wins
}

// AppendTTFTSince appends to dst the TTFT samples (seconds) of requests
// whose first token was observed at or after from, in arrival order, and
// returns the extended slice. Fleet autoscalers pool these across
// replicas before summarising; reusing dst's capacity keeps per-tick
// snapshots from allocating once the buffer has grown.
func (r *Recorder) AppendTTFTSince(dst []float64, from sim.Time) []float64 {
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		rec := r.reqs[id]
		if rec.firstToken >= from {
			dst = append(dst, (rec.firstToken - rec.arrival).Seconds())
		}
	}
	return dst
}

// QuantilesInPlace summarises a sample set (seconds) with the same
// statistics the recorder reports, for callers that pool samples across
// recorders themselves. It sorts samples in place. Per-tick consumers
// (fleet autoscalers) pair it with AppendTTFTSince over a reused scratch
// buffer.
func QuantilesInPlace(samples []float64) Quantiles { return quantiles(samples) }
