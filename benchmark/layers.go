package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"muxwise"
	"muxwise/internal/cluster"
	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/model"
	"muxwise/internal/obs"
	"muxwise/internal/roofline"
	"muxwise/internal/serve"
)

// minReplayTime is how long the traced run repeats each host-time replay
// of recorded inputs (cost-model queries, radix operations, summaries)
// so a per-operation time rests on more than a few timer ticks.
const minReplayTime = 200 * time.Millisecond

// cpuProfileHz samples the traced replay ten times more often than
// pprof's default, so a one-second replay yields about a thousand samples.
const cpuProfileHz = 1000

// layers is the traced run: untraced replays for the host baseline, then
// one replay with a flight recorder, timing wrappers on the router and
// autoscaler and a CPU profile, then replays of the recorded inputs
// through single modules. outDir, when set, receives the spans and the
// profile.
func (b *bench) layers(outDir string) error {
	w := b.w
	b.log = newSpanLog()
	tr, exp, st := b.setup()
	b.set("workload.gen_ms", median(st.gen)*1e3, "median of %d generations of %d requests", len(st.gen), tr.Len())

	ref := b.replay(exp, tr, nil, "reference replay")
	if ref == nil {
		return errNoReference
	}
	want := fingerprintOf(ref)
	reps, _ := b.repeat(exp, tr, &want)
	scaled, allocs, gcs := make([]float64, len(reps)), make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		scaled[i], allocs[i], gcs[i] = r.scaled, float64(r.alloc)/1e6, float64(r.gcs)
	}
	untraced := median(scaled)
	b.set("runtime.alloc_mb", median(allocs), "median over %d untraced replays", len(reps))
	b.set("runtime.gc_cycles", median(gcs), "median over %d untraced replays", len(reps))

	// The traced replay.
	p := &routeLog{log: b.log}
	opts := w.options("", "")
	if w.fleet {
		rname, sname, err := registerTiming(w.router, w.scaler, p)
		if err != nil {
			return err
		}
		opts = w.options(rname, sname)
	}
	fr := muxwise.NewFlightRecorder()
	texp := muxwise.NewExperiment(append(opts, muxwise.WithTrace(fr))...)
	var prof bytes.Buffer
	probe := newSpeedProbe()
	runtime.GC()
	// Setting the rate first makes StartCPUProfile keep it (the runtime
	// prints a warning that it cannot change it again).
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var rep *muxwise.Report
	_, tcpu := timed(func() {
		id := b.log.begin("experiment", "run", -1)
		rep = b.replay(texp, tr, &want, "traced replay")
		b.log.end(id)
	})
	pprof.StopCPUProfile()
	traced := tcpu.Seconds() * probe.scale()
	if rep == nil {
		return errors.New("traced replay failed")
	}

	ls := fingerprintOf(rep).Loop
	b.set("sim.events", float64(ls.Fired), "events fired")
	b.set("sim.canceled_frac", ratio(float64(ls.Canceled), float64(ls.Scheduled)), "of %d scheduled", ls.Scheduled)
	b.set("sim.max_pending", float64(ls.MaxPending), "event-heap high-water mark (every arrival is preloaded)")
	b.set("sim.ns_per_event", untraced*1e9/float64(ls.Fired), "untraced median replay %.4g s at the reference speed over %d events", untraced, ls.Fired)

	spec, arch, err := b.hardware()
	if err != nil {
		return err
	}
	b.gpuLayer(rep)
	cs := scanTrace(fr.Events())
	b.coreLayer(cs)
	b.costLayer(cs, spec, arch)
	b.kvLayer(rep, tr, spec, arch)

	b.set("serve.queue_wait_ms_p50", percentile(cs.queueMs, 50), "n=%d admissions", len(cs.queueMs))
	b.set("serve.queue_wait_ms_p99", percentile(cs.queueMs, 99), "n=%d admissions, %d beyond p99", len(cs.queueMs), beyond(len(cs.queueMs), 99))
	b.goodputTBT()

	b.clusterLayer(rep, p)
	b.summarizeLayer(rep)

	b.set("obs.events", float64(fr.Len()), "flight-recorder events of the traced replay")
	b.set("obs.overhead_frac", traced/untraced-1,
		"traced replay %.4g s (recorder, timing wrappers, CPU profile) over untraced median %.4g s, both at the reference speed", traced, untraced)

	shares, err := moduleShares(prof.Bytes())
	b.check(err == nil, "cpu profile: %v", err)
	for _, m := range append(slices.Clone(cpuModules), "bench", "other") {
		b.set("cpu."+m+"_frac", shares[m], "share of the traced replay's sampled CPU time")
	}

	b.extra = append(b.extra, "", "self time by layer (benchmark spans of the traced run)",
		fmt.Sprintf("  %-12s %8s %12s %12s", "layer", "spans", "total ms", "self ms"))
	for _, r := range b.log.selfTimes() {
		b.extra = append(b.extra, fmt.Sprintf("  %-12s %8d %12.3f %12.3f", r.layer, r.spans,
			float64(r.total)/1e6, float64(r.self)/1e6))
	}
	if outDir != "" {
		return writeArtifacts(outDir, fmt.Sprintf("%s-seed%d", w.name, b.seed), b.log, prof.Bytes())
	}
	return nil
}

// writeArtifacts writes the spans as Chrome trace JSON and the CPU
// profile.
func writeArtifacts(dir, stem string, log *spanLog, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+"-spans.json"))
	if err != nil {
		return err
	}
	if err := log.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+"-cpu.pprof"), profile, 0o644)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// devices lists every device of the run, across replicas for a fleet.
func devices(rep *muxwise.Report) []gpu.Stats {
	if rep.Fleet == nil {
		return rep.Engine.Devices
	}
	var out []gpu.Stats
	for _, r := range rep.Fleet.Replicas {
		out = append(out, r.Result.Devices...)
	}
	return out
}

func (b *bench) gpuLayer(rep *muxwise.Report) {
	devs := devices(rep)
	var kernels int64
	var smUtil, launch, active float64
	for _, d := range devs {
		kernels += d.Kernels
		smUtil += d.SMUtil
		launch += d.LaunchSeconds
		active += d.ActiveSeconds
	}
	b.set("gpu.kernels", float64(kernels), "kernels run on %d devices", len(devs))
	b.set("gpu.sm_util", ratio(smUtil, float64(len(devs))), "mean over %d devices of SMs occupied over the active window", len(devs))
	b.set("gpu.launch_frac", ratio(launch, active), "host launch seconds over %.4g device-active seconds", active)
}

// decodeShape is one recorded decode iteration: its cost-model inputs,
// the prefill it ran beside, and its simulated duration.
type decodeShape struct {
	ctx, bs, sms  int
	pNew, pReused int
	dur           muxwise.Time
}

// prefillShape is one recorded prefill phase and the decode partition
// of the replica's latest iteration when it began.
type prefillShape struct {
	reqs, newTok, reused, decodeSMs int
	dur                             muxwise.Time
}

// traceScan is what the traced run reads out of the flight recorder.
type traceScan struct {
	decodes  []decodeShape
	prefills []prefillShape
	queueMs  []float64
}

// scanTrace pairs the core engines' decode-iter and prefill duration
// spans (per replica track) and collects the queue wait each admission
// recorded. A decode iteration is paired with the prefill phase open on
// the same replica when it began; a prefill phase's partition is the
// device minus the decode partition of the replica's latest iteration
// (the whole device when that iteration held it all).
func scanTrace(events []obs.Event) traceScan {
	var out traceScan
	type open struct {
		at   muxwise.Time
		args []obs.Arg
	}
	decodeOpen := map[string]open{}  // replica → open decode-iter
	prefillOpen := map[string]open{} // replica → open prefill
	lastSMs := map[string]int{}      // replica → latest decode partition
	for _, ev := range events {
		switch {
		case ev.Ph == obs.PhaseAsyncInstant && ev.Name == "admitted":
			out.queueMs = append(out.queueMs, argFloat(ev.Args, "queue_ms"))
		case ev.Name == "decode-iter":
			rep := replicaOf(ev.Track)
			if ev.Ph == obs.PhaseBegin {
				decodeOpen[rep] = open{ev.At, ev.Args}
				lastSMs[rep] = int(argFloat(ev.Args, "sms"))
				continue
			}
			o := decodeOpen[rep]
			d := decodeShape{
				ctx: int(argFloat(o.args, "ctx")), bs: int(argFloat(o.args, "bs")),
				sms: int(argFloat(o.args, "sms")), dur: ev.At - o.at,
			}
			if p, ok := prefillOpen[rep]; ok && p.at <= o.at {
				d.pNew, d.pReused = int(argFloat(p.args, "new_tokens")), int(argFloat(p.args, "reused_tokens"))
			}
			out.decodes = append(out.decodes, d)
		case ev.Name == "prefill":
			rep := replicaOf(ev.Track)
			if ev.Ph == obs.PhaseBegin {
				prefillOpen[rep] = open{ev.At, ev.Args}
				continue
			}
			o, ok := prefillOpen[rep]
			if !ok {
				continue
			}
			delete(prefillOpen, rep)
			out.prefills = append(out.prefills, prefillShape{
				reqs: int(argFloat(o.args, "reqs")), newTok: int(argFloat(o.args, "new_tokens")),
				reused: int(argFloat(o.args, "reused_tokens")), decodeSMs: lastSMs[rep], dur: ev.At - o.at,
			})
		}
	}
	return out
}

// replicaOf strips the stream suffix off a core engine track
// ("MuxWise-2/decode" → "MuxWise-2").
func replicaOf(track string) string {
	if i := strings.LastIndexByte(track, '/'); i >= 0 {
		return track[:i]
	}
	return track
}

// argFloat reads a numeric flight-recorder argument; 0 when absent.
func argFloat(args []obs.Arg, key string) float64 {
	for _, a := range args {
		if a.Key != key {
			continue
		}
		switch v := a.Val.(type) {
		case int:
			return float64(v)
		case int64:
			return float64(v)
		case float64:
			return v
		case muxwise.Time:
			return float64(v)
		}
	}
	return 0
}

func (b *bench) coreLayer(cs traceScan) {
	durs, bss, smss := make([]float64, len(cs.decodes)), make([]float64, len(cs.decodes)), make([]float64, len(cs.decodes))
	for i, d := range cs.decodes {
		durs[i], bss[i], smss[i] = d.dur.Milliseconds(), float64(d.bs), float64(d.sms)
	}
	n := len(cs.decodes)
	b.set("core.decode_iters", float64(n), "decode-iter spans")
	b.set("core.decode_bs_p50", percentile(bss, 50), "n=%d iterations", n)
	b.set("core.decode_iter_ms_p50", percentile(durs, 50), "n=%d iterations", n)
	b.set("core.decode_iter_ms_p99", percentile(durs, 99), "n=%d iterations, %d beyond p99", n, beyond(n, 99))
	b.set("core.decode_sms_p50", percentile(smss, 50), "n=%d iterations", n)
	pd := make([]float64, len(cs.prefills))
	for i, p := range cs.prefills {
		pd[i] = p.dur.Milliseconds()
	}
	b.set("core.prefill_phases", float64(len(pd)), "prefill spans (a preempted phase counts each time it runs)")
	b.set("core.prefill_phase_ms_p99", percentile(pd, 99), "n=%d phases, %d beyond p99", len(pd), beyond(len(pd), 99))
}

// hardware resolves the workload's GPU spec and model architecture.
func (b *bench) hardware() (gpu.Spec, model.Arch, error) {
	spec, ok := gpu.SpecByName(b.w.dep.Hardware)
	if !ok {
		return spec, model.Arch{}, fmt.Errorf("unknown hardware %q", b.w.dep.Hardware)
	}
	arch, ok := model.ByName(b.w.dep.Model)
	if !ok {
		return spec, arch, fmt.Errorf("unknown model %q", b.w.dep.Model)
	}
	return spec, arch, nil
}

// costModel builds the workload's cost model the way engines resolve it.
func (b *bench) costModel(spec gpu.Spec, arch model.Arch) serve.CostModel {
	if b.w.cost == muxwise.CostRoofline {
		return roofline.New(spec, b.w.dep.GPUs, arch)
	}
	return estimator.New(spec, b.w.dep.GPUs, arch).Fork()
}

// costSink keeps the cost-model replay's results live.
var costSink muxwise.Time

func (b *bench) costLayer(cs traceScan, spec gpu.Spec, arch model.Arch) {
	cm := b.costModel(spec, arch)
	ratios := make([]float64, 0, len(cs.decodes))
	for _, d := range cs.decodes {
		if solo := cm.DecodeSolo(d.ctx, d.bs, d.sms); solo > 0 {
			ratios = append(ratios, float64(d.dur)/float64(solo))
		}
	}
	b.set("cost.decode_ratio_p50", percentile(ratios, 50), "simulated decode-iter over DecodeSolo, n=%d", len(ratios))
	b.set("cost.decode_ratio_p99", percentile(ratios, 99), "n=%d, %d beyond p99", len(ratios), beyond(len(ratios), 99))

	// Host time per query over the recorded shapes. A prefill phase's
	// batch is split evenly over its requests.
	seqs := make([][]model.Seq, len(cs.prefills))
	psms := make([]int, len(cs.prefills))
	for i, p := range cs.prefills {
		n := max(p.reqs, 1)
		for j := 0; j < n; j++ {
			seqs[i] = append(seqs[i], model.Seq{New: share(p.newTok, n, j), Reused: share(p.reused, n, j)})
		}
		psms[i] = spec.SMs - p.decodeSMs
		if psms[i] <= 0 {
			psms[i] = spec.SMs
		}
	}
	queries := 0
	id := b.log.begin("cost", "replay", -1)
	t0 := time.Now()
	for rounds := 0; rounds == 0 || time.Since(t0) < minReplayTime; rounds++ {
		for _, d := range cs.decodes {
			costSink += cm.DecodeSolo(d.ctx, d.bs, d.sms)
			costSink += cm.DecodeWorst(d.ctx, d.bs, d.sms, d.pNew, d.pReused)
		}
		for i := range seqs {
			costSink += cm.PrefillPhase(seqs[i], psms[i])
		}
		queries += 2*len(cs.decodes) + len(seqs)
	}
	el := time.Since(t0)
	b.log.end(id)
	b.set("cost.ns_per_query", ratio(float64(el.Nanoseconds()), float64(queries)),
		"%s DecodeSolo/DecodeWorst/PrefillPhase over %d recorded shapes, %d queries", b.w.cost, len(cs.decodes)+len(seqs), queries)
}

// share splits total into n near-equal parts and returns part j.
func share(total, n, j int) int {
	s := total / n
	if j < total%n {
		s++
	}
	return s
}

func (b *bench) kvLayer(rep *muxwise.Report, tr *muxwise.Trace, spec gpu.Spec, arch model.Arch) {
	h := fingerprintOf(rep).CacheHit
	b.set("kvcache.hit_frac", h, "token-weighted prefix-cache hits of the traced replay")
	if b.w.sharesPrefixes {
		b.check(h > 0, "kvcache: the trace shares prefixes, yet the hit rate is 0")
	} else {
		b.check(h == 0, "kvcache: the trace shares no prefixes, yet the hit rate is %g", h)
	}

	// Replay the trace's page lists, in arrival order, through one pool
	// of a replica's KV capacity: admission lookup, then publication of
	// the finished request's pages.
	capacity := arch.KVPoolTokens(int64(b.w.dep.GPUs)*spec.HBMCapacity, 0.10)
	var evictions int64
	ops := 0
	id := b.log.begin("kvcache", "replay", -1)
	t0 := time.Now()
	for rounds := 0; rounds == 0 || time.Since(t0) < minReplayTime; rounds++ {
		pool := kvcache.New(capacity, kvcache.DefaultPageTokens)
		for _, r := range tr.Requests {
			pool.MatchTokens(r.Pages, r.InputTokens)
			pool.Insert(r.AllPages)
		}
		ops += 2 * len(tr.Requests)
		evictions = pool.Stats().Evictions
	}
	el := time.Since(t0)
	b.log.end(id)
	b.set("kvcache.evictions", float64(evictions), "pages evicted replaying %d requests through a %d-token pool", tr.Len(), capacity)
	b.set("kvcache.ns_per_op", ratio(float64(el.Nanoseconds()), float64(ops)), "Match+Insert over the trace's page lists, %d ops", ops)
}

// goodputTBT runs the repository's own goodput search, whose criterion
// counts only TBT samples (99% within the SLO) and ignores TTFT, over the
// workload's goodput bracket.
func (b *bench) goodputTBT() {
	w := b.w
	exp := muxwise.NewExperiment(append(w.options("", ""), muxwise.WithWorkload(func(load float64) *muxwise.Trace {
		return w.gen(b.seed, load)
	}))...)
	g, err := exp.Goodput(w.ref, w.hi)
	b.check(err == nil || errors.Is(err, muxwise.ErrNoFeasibleRate), "Experiment.Goodput: %v", err)
	switch {
	case errors.Is(err, muxwise.ErrNoFeasibleRate):
		b.set("serve.goodput_tbt_rps", 0, "TBT-only criterion: no feasible load in [%g, %g]", w.ref, w.hi)
	case err != nil:
		b.set("serve.goodput_tbt_rps", 0, "search failed")
	default:
		ceiling := ""
		if g > 0.98*w.hi {
			ceiling = " (at the ceiling: the TBT-only knee lies at or above it)"
		}
		b.set("serve.goodput_tbt_rps", w.offeredRate(w.gen(b.seed, g), g),
			"Experiment.Goodput over %s [%g, %g]: %s %.4g%s; counts TBT samples only, not TTFT",
			w.knob, w.ref, w.hi, w.knob, g, ceiling)
	}
}

func (b *bench) clusterLayer(rep *muxwise.Report, p *routeLog) {
	var peak, spawns, retires, unrouted float64
	if f := rep.Fleet; f != nil {
		type edge struct {
			at muxwise.Time
			d  int
		}
		var edges []edge
		for _, r := range f.Replicas {
			if r.State == cluster.StateStarting {
				continue // never became ready
			}
			edges = append(edges, edge{r.ReadyAt, +1})
			if r.DownAt > 0 {
				edges = append(edges, edge{r.DownAt, -1})
				retires++
			}
		}
		slices.SortFunc(edges, func(a, b edge) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return a.d - b.d // a replica going down frees its slot first
		})
		up := 0
		for _, e := range edges {
			up += e.d
			peak = max(peak, float64(up))
		}
		spawns = float64(len(f.Replicas) - fleetReplicas)
		unrouted = float64(f.Unrouted)
	}
	b.set("cluster.replicas_peak", peak, "most replicas serving at once")
	b.set("cluster.spawns", spawns, "replicas the autoscaler added")
	b.set("cluster.retires", retires, "replicas that went down")
	b.set("cluster.unrouted", unrouted, "requests that never found a replica")

	picks := p.log.durations("epp", "pick")
	for i := range picks {
		picks[i] /= 1e3 // ns → µs
	}
	b.set("epp.picks", float64(len(picks)), "Router.Pick calls")
	b.set("epp.pick_us_p50", percentile(picks, 50), "n=%d picks, host time through the timing wrapper", len(picks))
	b.set("epp.pick_us_p99", percentile(picks, 99), "n=%d picks, %d beyond p99", len(picks), beyond(len(picks), 99))
	b.set("epp.session_hit_frac", p.sessionHitFrac(), "later turns placed on the previous turn's replica")
}

// summarizeLayer times Recorder.Summarize plus RollupSLO (one-minute
// windows) on the traced run's own recorder.
func (b *bench) summarizeLayer(rep *muxwise.Report) {
	var rec *muxwise.Recorder
	if rep.Fleet != nil {
		rec = rep.Fleet.Rec
	} else {
		rec = rep.Engine.Rec
	}
	end := rep.Summary.Makespan
	var bounds []muxwise.Time
	for t := muxwise.Time(0); t < end; t += 60 * muxwise.Second {
		bounds = append(bounds, t)
	}
	bounds = append(bounds, end)
	var times []float64
	t0 := time.Now()
	for len(times) < minReps || time.Since(t0) < minReplayTime {
		t := time.Now()
		id := b.log.begin("metrics", "summarize", -1)
		rec.Summarize("benchmark", end)
		rec.RollupSLO(bounds, rep.SLO.TBT)
		b.log.end(id)
		times = append(times, time.Since(t).Seconds()*1e3)
	}
	b.set("metrics.summarize_ms", median(times), "median of %d Summarize+RollupSLO calls over %d windows", len(times), len(bounds)-1)
}
