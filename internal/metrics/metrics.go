// Package metrics records per-request serving latencies and aggregates
// them into the statistics the paper reports: TTFT, TBT, TPOT, end-to-end
// latency (average/P50/P99), token throughput, SLO attainment, and the
// partition timeline of Fig. 18.
//
// The paper's metric choices are followed exactly: TBT is the gap between
// consecutive token emissions of a request (stricter than the TPOT
// average, §4.1), TTFT is first-token time minus arrival, and SLO
// attainment is the fraction of TBT samples within the target.
//
// Storage is per request: each request's record keeps the emission time
// of every token after its first, in a slice sized up front from the
// output length given to Arrive, plus its largest gap. TBT samples are
// derived from those times when a summary is built, so recording a token
// appends one sim.Time and nothing is pooled across requests.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"muxwise/internal/obs"
	"muxwise/internal/sim"
)

// SLO holds the latency targets of a serving class.
type SLO struct {
	TTFT sim.Time
	TBT  sim.Time
}

// reqRec tracks one request's lifecycle.
type reqRec struct {
	arrival    sim.Time
	admitted   sim.Time // -1 until the engine admits it out of its queue
	firstToken sim.Time
	lastToken  sim.Time
	finished   sim.Time
	// emits holds the emission time of every token after the first; gap
	// k is emits[k] minus the previous emission (firstToken for k = 0).
	emits []sim.Time
	// maxGap is the request's largest inter-token gap, so the per-request
	// TBT check needs no walk over emits.
	maxGap      sim.Time
	tokens      int
	inputTokens int
	idx         int // position in Recorder.ids (the removal index map)
	done        bool
}

// tbtMiss reports whether some inter-token gap of the request exceeded a
// positive target. It compares in seconds, as the samples are reported;
// Seconds is monotone, so the largest gap decides.
func (rec *reqRec) tbtMiss(target sim.Time) bool {
	return target > 0 && rec.maxGap.Seconds() > target.Seconds()
}

// appendGaps appends the request's inter-token gaps in seconds, in
// emission order.
func (rec *reqRec) appendGaps(dst []float64) []float64 {
	prev := rec.firstToken
	for _, at := range rec.emits {
		dst = append(dst, (at - prev).Seconds())
		prev = at
	}
	return dst
}

// tombstoneID marks an aborted request's slot in the ids slice; iteration
// skips it and compaction reclaims it. Real request IDs never take this
// value.
const tombstoneID = math.MinInt

// Recorder collects latency samples during a simulation run. Each
// request's samples live in its own record (see the package comment), so
// dropping a request drops its samples with it and merging recorders
// shares records instead of copying samples.
type Recorder struct {
	reqs map[int]*reqRec
	// ids holds request IDs in insertion order for deterministic
	// iteration. Abort overwrites the request's slot (found through its
	// record's index, not a scan) with tombstoneID; compact reclaims the
	// slots once they outnumber the live entries.
	ids        []int
	tombstones int
	open       int // arrived-but-unfinished requests

	tbtN int // TBT samples over the live records (sizes TBTSamples)

	prefillTokens int64
	decodeTokens  int64

	// halted freezes the recorder: a failed replica's engine keeps
	// simulating its queued work (ghost events), but none of it may leak
	// into the metrics after the failure instant.
	halted bool

	// OnFinish, when set, is invoked exactly once per request as it
	// completes (cluster routers use it to track per-replica load).
	OnFinish func(id int, at sim.Time)

	// OnFirstToken, when set, is invoked once per request as its first
	// token is observed, with the request's TTFT (learned routers use it
	// to track per-replica first-token latency).
	OnFirstToken func(id int, ttft sim.Time)

	// trace, when set, receives request lifecycle events (arrival,
	// admission, first token, finish) on the named track. Emission is
	// purely observational; a nil trace costs nothing.
	trace *obs.Tracer
	track string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{reqs: map[int]*reqRec{}}
}

// SetTrace attaches a flight recorder; lifecycle events are emitted on
// track (the owning instance's label). A nil tracer detaches.
func (r *Recorder) SetTrace(tr *obs.Tracer, track string) {
	r.trace = tr
	r.track = track
}

// Arrive registers a request's arrival. outputTokens is the number of
// tokens the request will generate: its record reserves room for that
// many emissions minus the first, so recording a token does not grow a
// slice. It is a sizing hint only; zero reserves nothing, and a request
// that emits more still records every token.
func (r *Recorder) Arrive(id int, at sim.Time, inputTokens, outputTokens int) {
	if r.halted {
		return
	}
	if _, ok := r.reqs[id]; ok {
		return
	}
	rec := &reqRec{arrival: at, admitted: -1, firstToken: -1, inputTokens: inputTokens, idx: len(r.ids)}
	if outputTokens > 1 {
		rec.emits = make([]sim.Time, 0, outputTokens-1)
	}
	r.reqs[id] = rec
	r.ids = append(r.ids, id)
	r.open++
	if r.trace != nil {
		r.trace.AsyncBegin(at, r.track, "request", int64(id), "request",
			obs.Arg{Key: "input_tokens", Val: inputTokens})
	}
}

// Admitted records the instant the engine accepted the request out of
// its arrival queue into serving (KV reserved, prefill scheduled). The
// diagnostics rollup uses it to split a TTFT miss into queue-wait vs
// prefill time. First call wins; unknown requests and halted recorders
// are ignored.
func (r *Recorder) Admitted(id int, at sim.Time) {
	rec, ok := r.reqs[id]
	if !ok || r.halted || rec.admitted >= 0 {
		return
	}
	rec.admitted = at
	if r.trace != nil {
		r.trace.AsyncInstant(at, r.track, "request", int64(id), "admitted",
			obs.Arg{Key: "queue_ms", Val: (at - rec.arrival).Milliseconds()})
	}
}

// PrefillDone credits processed prefill tokens (throughput accounting).
func (r *Recorder) PrefillDone(tokens int) {
	if r.halted {
		return
	}
	r.prefillTokens += int64(tokens)
}

// Token records one generated token for the request. The first token
// defines TTFT; subsequent tokens contribute TBT samples.
func (r *Recorder) Token(id int, at sim.Time) {
	rec, ok := r.reqs[id]
	if !ok || r.halted {
		return
	}
	rec.tokens++
	r.decodeTokens++
	if rec.firstToken < 0 {
		rec.firstToken = at
		if r.OnFirstToken != nil {
			r.OnFirstToken(id, at-rec.arrival)
		}
		if r.trace != nil {
			r.trace.AsyncInstant(at, r.track, "request", int64(id), "first-token",
				obs.Arg{Key: "ttft_ms", Val: (at - rec.arrival).Milliseconds()})
		}
	} else {
		rec.emits = append(rec.emits, at)
		if gap := at - rec.lastToken; gap > rec.maxGap {
			rec.maxGap = gap
		}
		r.tbtN++
	}
	rec.lastToken = at
}

// Finish marks the request complete.
func (r *Recorder) Finish(id int, at sim.Time) {
	if r.halted {
		return
	}
	if rec, ok := r.reqs[id]; ok && !rec.done {
		rec.finished = at
		rec.done = true
		r.open--
		if r.OnFinish != nil {
			r.OnFinish(id, at)
		}
		if r.trace != nil {
			r.trace.AsyncEnd(at, r.track, "request", int64(id), "request",
				obs.Arg{Key: "outcome", Val: "finish"},
				obs.Arg{Key: "tokens", Val: rec.tokens})
		}
	}
}

// Halt freezes the recorder at the current instant. Later Arrive, Token,
// PrefillDone and Finish calls are ignored: a failed replica's engine
// keeps dispatching its already-scheduled simulation events, and that
// ghost work must not count. Abort still works on a halted recorder so
// the fleet controller can surface in-flight requests for re-dispatch.
func (r *Recorder) Halt() { r.halted = true }

// Halted reports whether the recorder has been frozen.
func (r *Recorder) Halted() bool { return r.halted }

// Abort removes an unfinished request from the recorder as if it had
// never arrived here, dropping its TBT samples, so the same request ID
// can re-arrive on another replica's recorder (metrics.Merge requires
// disjoint IDs). The re-prefill the request pays on its new replica is
// charged through the cache-hit machinery, not here. Aborting a finished
// or unknown request is a no-op; it reports whether a record was removed.
func (r *Recorder) Abort(id int) bool {
	rec, ok := r.reqs[id]
	if !ok || rec.done {
		return false
	}
	// Roll back the aborted request's decode tokens: its latency samples
	// are withdrawn and the full output is re-credited wherever it
	// re-dispatches. Prefill tokens stay — they are batch-level credits
	// with no per-request attribution, and that work really ran here; the
	// re-prefill on the new replica is counted again on purpose, as the
	// failure's cost in fleet throughput.
	r.decodeTokens -= int64(rec.tokens)
	r.tbtN -= len(rec.emits)
	delete(r.reqs, id)
	r.open--
	// O(1) slot removal through the record's index; the order-preserving
	// compaction runs only when tombstones outnumber live entries, so a
	// drain aborting k of n requests costs O(k + n) total, not O(k·n).
	r.ids[rec.idx] = tombstoneID
	r.tombstones++
	if r.tombstones > len(r.ids)-r.tombstones {
		r.compact()
	}
	return true
}

// compact rewrites ids without tombstones, preserving insertion order and
// refreshing every record's index.
func (r *Recorder) compact() {
	kept := r.ids[:0]
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		r.reqs[id].idx = len(kept)
		kept = append(kept, id)
	}
	r.ids = kept
	r.tombstones = 0
}

// OpenIDs returns the IDs of arrived-but-unfinished requests in arrival
// order — the in-flight set a drain or failure must surface for
// re-dispatch.
func (r *Recorder) OpenIDs() []int {
	var out []int
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		if !r.reqs[id].done {
			out = append(out, id)
		}
	}
	return out
}

// Quantiles summarises a latency sample set in seconds.
type Quantiles struct {
	Avg, P50, P90, P99, Max float64
	N                       int
}

// quantiles summarises a sample set, sorting it IN PLACE — callers own
// their slices.
func quantiles(samples []float64) Quantiles {
	q := Quantiles{N: len(samples)}
	if len(samples) == 0 {
		return q
	}
	s := samples
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	q.Avg = sum / float64(len(s))
	q.P50 = percentile(s, 0.50)
	q.P90 = percentile(s, 0.90)
	q.P99 = percentile(s, 0.99)
	q.Max = s[len(s)-1]
	return q
}

// percentile returns the p-quantile of a sorted sample via the
// nearest-rank method the serving literature uses for tail latencies.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String formats the headline quantiles in milliseconds.
func (q Quantiles) String() string {
	return fmt.Sprintf("avg=%.1fms p50=%.1fms p99=%.1fms", q.Avg*1e3, q.P50*1e3, q.P99*1e3)
}

// Summary aggregates a completed run.
type Summary struct {
	Name     string
	Requests int
	Finished int

	TTFT Quantiles
	TBT  Quantiles
	TPOT Quantiles
	E2E  Quantiles

	// TTFTPerToken normalises TTFT by input length (§4.4.3 / Fig. 20).
	TTFTPerToken Quantiles

	// TokensPerSecond counts prefill+decode tokens over the active span.
	TokensPerSecond float64
	DecodeTokens    int64
	PrefillTokens   int64

	Makespan sim.Time

	// Backlog is the number of requests still unfinished shortly after
	// the last arrival (set by the runner's stability probe).
	Backlog int

	// MigratedKVTokens counts KV tokens delivered by cluster KV
	// migration (graceful drains streaming session KV to the re-routed
	// replica); MigrationStallSeconds sums the stream latencies those
	// sessions waited out. Both are zero for single-instance runs and
	// migration-disabled fleets — the cluster runner sets them, the way
	// the stability probe sets Backlog.
	MigratedKVTokens      int64
	MigrationStallSeconds float64

	// Unstable marks runs where the system could not keep up — a large
	// backlog after arrivals stop, or unfinished work at the horizon —
	// mirroring the paper's "unstable" baseline states in Fig. 14/15.
	Unstable bool
}

// TBTAttainment returns the fraction of TBT samples within the SLO.
func (r *Recorder) TBTAttainment(slo sim.Time) float64 {
	target := slo.Seconds()
	n, ok := 0, 0
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		rec := r.reqs[id]
		prev := rec.firstToken
		for _, at := range rec.emits {
			n++
			if (at - prev).Seconds() <= target {
				ok++
			}
			prev = at
		}
	}
	if n == 0 {
		return 1
	}
	return float64(ok) / float64(n)
}

// WithinSLO returns how many requests met the SLO end to end: finished,
// first token within slo.TTFT, and every inter-token gap within slo.TBT.
// It is the per-request conformance count behind DistServe-style goodput
// (requests per second that meet their SLO); dividing by the offered
// span turns it into the frontier's goodput numerator. A zero TTFT or
// TBT target disables that half of the check.
func (r *Recorder) WithinSLO(slo SLO) int {
	n := 0
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		rec := r.reqs[id]
		if !rec.done || rec.firstToken < 0 || rec.tbtMiss(slo.TBT) {
			continue
		}
		if slo.TTFT > 0 && rec.firstToken-rec.arrival > slo.TTFT {
			continue
		}
		n++
	}
	return n
}

// TTFTAttainment returns the fraction of first tokens within the SLO.
func (r *Recorder) TTFTAttainment(slo sim.Time) float64 {
	total, ok := 0, 0
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		rec := r.reqs[id]
		if rec.firstToken < 0 {
			continue
		}
		total++
		if rec.firstToken-rec.arrival <= slo {
			ok++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// Summarize builds the run summary. now is the simulation end time, used
// for makespan and stability accounting.
func (r *Recorder) Summarize(name string, now sim.Time) Summary {
	s := Summary{Name: name, Makespan: now}
	var ttft, tpot, e2e, perTok []float64
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		rec := r.reqs[id]
		s.Requests++
		if rec.firstToken >= 0 {
			t := (rec.firstToken - rec.arrival).Seconds()
			ttft = append(ttft, t)
			if rec.inputTokens > 0 {
				perTok = append(perTok, t/float64(rec.inputTokens))
			}
		}
		if !rec.done {
			continue
		}
		s.Finished++
		e2e = append(e2e, (rec.finished - rec.arrival).Seconds())
		if rec.tokens > 1 {
			tpot = append(tpot, (rec.lastToken-rec.firstToken).Seconds()/float64(rec.tokens-1))
		}
	}
	s.TTFT = quantiles(ttft)
	s.TBT = quantiles(r.TBTSamples())
	s.TPOT = quantiles(tpot)
	s.E2E = quantiles(e2e)
	s.TTFTPerToken = quantiles(perTok)
	s.DecodeTokens = r.decodeTokens
	s.PrefillTokens = r.prefillTokens
	if sec := now.Seconds(); sec > 0 {
		s.TokensPerSecond = float64(r.prefillTokens+r.decodeTokens) / sec
	}
	s.Unstable = s.Finished < s.Requests*95/100
	return s
}

// IDs returns the recorded request IDs in arrival-insertion order
// (cluster tests map them back to trace sessions).
func (r *Recorder) IDs() []int {
	if r.tombstones > 0 {
		r.compact()
	}
	return r.ids
}

// Unfinished returns how many arrived requests have not completed.
func (r *Recorder) Unfinished() int { return r.open }

// TBTSamples exposes raw TBT samples in seconds (CDF plotting). They are
// grouped by request, requests in arrival order and each request's gaps
// in emission order — not interleaved in emission order across requests.
func (r *Recorder) TBTSamples() []float64 {
	out := make([]float64, 0, r.tbtN)
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		out = r.reqs[id].appendGaps(out)
	}
	return out
}

// TTFTPerTokenSamples returns TTFT/input-length for every started request.
func (r *Recorder) TTFTPerTokenSamples() []float64 {
	var out []float64
	for _, id := range r.ids {
		if id == tombstoneID {
			continue
		}
		rec := r.reqs[id]
		if rec.firstToken >= 0 && rec.inputTokens > 0 {
			out = append(out, (rec.firstToken-rec.arrival).Seconds()/float64(rec.inputTokens))
		}
	}
	return out
}

// Timeline records a step function of the compute partition over time
// (Fig. 18: SM share of prefill vs decode).
type Timeline struct {
	times      []sim.Time
	decodeSMs  []int
	prefillSMs []int
}

// Record appends a partition change.
func (tl *Timeline) Record(at sim.Time, decodeSMs, prefillSMs int) {
	n := len(tl.times)
	if n > 0 && tl.decodeSMs[n-1] == decodeSMs && tl.prefillSMs[n-1] == prefillSMs {
		return
	}
	tl.times = append(tl.times, at)
	tl.decodeSMs = append(tl.decodeSMs, decodeSMs)
	tl.prefillSMs = append(tl.prefillSMs, prefillSMs)
}

// Changes returns the number of distinct partition configurations seen.
func (tl *Timeline) Changes() int { return len(tl.times) }

// DistinctConfigs returns how many distinct (decode, prefill) pairs occur.
func (tl *Timeline) DistinctConfigs() int {
	set := map[[2]int]bool{}
	for i := range tl.times {
		set[[2]int{tl.decodeSMs[i], tl.prefillSMs[i]}] = true
	}
	return len(set)
}

// MeanShares returns the time-weighted mean SM share of decode and
// prefill over [0, end].
func (tl *Timeline) MeanShares(end sim.Time, totalSMs int) (decode, prefill float64) {
	if len(tl.times) == 0 || totalSMs == 0 {
		return 0, 0
	}
	var dInt, pInt float64
	for i := range tl.times {
		until := end
		if i+1 < len(tl.times) {
			until = tl.times[i+1]
		}
		if until > end {
			until = end
		}
		dt := (until - tl.times[i]).Seconds()
		if dt < 0 {
			dt = 0
		}
		dInt += float64(tl.decodeSMs[i]) * dt
		pInt += float64(tl.prefillSMs[i]) * dt
	}
	span := (end - tl.times[0]).Seconds()
	if span <= 0 {
		return 0, 0
	}
	return dInt / span / float64(totalSMs), pInt / span / float64(totalSMs)
}

// MeanSharesActive is MeanShares restricted to intervals where the
// prefill partition holds SMs — the co-running periods Fig. 18 plots.
// It returns zeros when the phases never multiplexed.
func (tl *Timeline) MeanSharesActive(end sim.Time, totalSMs int) (decode, prefill float64) {
	if len(tl.times) == 0 || totalSMs == 0 {
		return 0, 0
	}
	var dInt, pInt, span float64
	for i := range tl.times {
		if tl.prefillSMs[i] == 0 {
			continue
		}
		until := end
		if i+1 < len(tl.times) {
			until = tl.times[i+1]
		}
		if until > end {
			until = end
		}
		dt := (until - tl.times[i]).Seconds()
		if dt < 0 {
			dt = 0
		}
		dInt += float64(tl.decodeSMs[i]) * dt
		pInt += float64(tl.prefillSMs[i]) * dt
		span += dt
	}
	if span <= 0 {
		return 0, 0
	}
	return dInt / span / float64(totalSMs), pInt / span / float64(totalSMs)
}

// ConfigsWithin counts distinct configurations active inside [from, to]
// (used for the §4.4.1 observation that bursty intervals activate all six
// partition configurations within 30 s).
func (tl *Timeline) ConfigsWithin(from, to sim.Time) int {
	set := map[[2]int]bool{}
	for i := range tl.times {
		if tl.times[i] >= from && tl.times[i] <= to {
			set[[2]int{tl.decodeSMs[i], tl.prefillSMs[i]}] = true
		}
	}
	return len(set)
}
