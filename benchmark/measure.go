package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"

	"muxwise"
	"muxwise/internal/cluster"
)

// setupReps is how many times a run generates the trace and resolves the
// experiment; setup_s is the median, so one slow set-up does not move it.
const setupReps = 7

// minReps is the fewest timed replays a run makes, however short its
// --seconds.
const minReps = 3

// timedProcs is GOMAXPROCS inside the timed sections (set-ups and timed
// replays). On one P the collector's work always adds to wall time; on
// two it hides behind the replay only while a second core happens to be
// free, which on a shared machine moves wall time from run to run.
const timedProcs = 1

// timed runs fn on timedProcs Ps and returns its wall time and the CPU
// time the process spent meanwhile.
func timed(fn func()) (wall, cpu time.Duration) {
	prev := runtime.GOMAXPROCS(timedProcs)
	defer runtime.GOMAXPROCS(prev)
	c0 := processCPU()
	t0 := time.Now()
	fn()
	return time.Since(t0), processCPU() - c0
}

// processCPU is the user and system CPU time the process has used. On a
// shared machine it leaves out the time the process waited for a core,
// which wall time counts and which varies with the neighbours' load.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimes are the set-up measurements of a run, in seconds.
type setupTimes struct {
	scaled []float64 // CPU time at the reference speed
	wall   []float64
	gen    []float64 // wall time of the trace generator alone
}

// setup generates the reference trace and resolves the experiment
// setupReps times: the experiment is resolved by running it on an empty
// trace, which builds the deployment (engines or fleet, cost model)
// without replaying a request. It returns the last trace and experiment
// with the times of every set-up.
func (b *bench) setup() (*muxwise.Trace, *muxwise.Experiment, setupTimes) {
	var (
		tr  *muxwise.Trace
		exp *muxwise.Experiment
		st  setupTimes
	)
	probe := newSpeedProbe()
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		var g time.Duration
		wall, cpu := timed(func() {
			t0 := time.Now()
			id := b.log.begin("workload", "generate", -1)
			tr = b.w.gen(b.seed, b.w.ref)
			b.log.end(id)
			g = time.Since(t0)
			exp = muxwise.NewExperiment(b.w.options("", "")...)
			b.attempted++
			if _, err := exp.Run(&muxwise.Trace{Name: "empty"}); err != nil {
				b.fail("set-up: %v", err)
			}
		})
		st.scaled = append(st.scaled, cpu.Seconds())
		st.wall = append(st.wall, wall.Seconds())
		st.gen = append(st.gen, g.Seconds())
	}
	// Set-ups are short, so one pair of calibration passes brackets them all.
	f := probe.scale()
	for i := range st.scaled {
		st.scaled[i] *= f
	}
	return tr, exp, st
}

// timedReplay is one repetition of the reference replay.
type timedReplay struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time during the replay
	scaled   float64       // cpu at the reference speed, in seconds
	heapPeak uint64        // bytes of heap objects, the highest sample
	alloc    uint64        // bytes allocated during the replay
	gcs      uint32        // collections completed during the replay
}

// timeReplay replays the trace once from a freshly collected heap,
// sampling heap in use on a separate goroutine every heapSampleEvery.
func (b *bench) timeReplay(exp *muxwise.Experiment, tr *muxwise.Trace, want *fingerprint, what string) timedReplay {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	peak := make(chan uint64)
	go sampleHeap(stop, peak)
	wall, cpu := timed(func() { b.replay(exp, tr, want, what) })
	close(stop)
	hp := <-peak
	runtime.ReadMemStats(&after)
	return timedReplay{
		wall:     wall,
		cpu:      cpu,
		heapPeak: hp,
		alloc:    after.TotalAlloc - before.TotalAlloc,
		gcs:      after.NumGC - before.NumGC,
	}
}

// heapSampleEvery spaces the heap samples: the heap grows over seconds of
// replay, so a few milliseconds lose nothing and keep the sampler's
// wake-ups a negligible share of the one P the replay runs on.
const heapSampleEvery = 5 * time.Millisecond

// sampleHeap reports the highest heap-objects reading it sees until stop
// closes, then sends it on peak and returns.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var hi uint64
	read := func() {
		rtmetrics.Read(s)
		if v := s[0].Value.Uint64(); v > hi {
			hi = v
		}
	}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		read()
		select {
		case <-stop:
			read()
			peak <- hi
			return
		case <-tick.C:
		}
	}
}

// repeat times the reference replay until the run's budget is spent, and
// at least minReps times. It also returns the calibration passes, in
// seconds.
func (b *bench) repeat(exp *muxwise.Experiment, tr *muxwise.Trace, want *fingerprint) ([]timedReplay, []float64) {
	var out []timedReplay
	probe := newSpeedProbe()
	deadline := time.Now().Add(b.budget)
	for len(out) < minReps || time.Now().Before(deadline) {
		out = append(out, b.timeReplay(exp, tr, want, fmt.Sprintf("repetition %d", len(out)+1)))
	}
	f := probe.scale()
	for i := range out {
		out[i].scaled = out[i].cpu.Seconds() * f
	}
	return out, probe.passes
}

// endToEnd measures the end-to-end metrics.
func (b *bench) endToEnd() error {
	w := b.w
	tr, exp, st := b.setup()
	b.set("setup_s", median(st.scaled), "median of %d set-ups at the reference speed: generate the trace, resolve the experiment (first %.4g s; wall median %.4g s)",
		len(st.scaled), st.scaled[0], median(st.wall))

	ref := b.replay(exp, tr, nil, "reference replay")
	if ref == nil {
		return errNoReference
	}
	want := fingerprintOf(ref)
	reps, passes := b.repeat(exp, tr, &want)
	scaled := make([]float64, len(reps))
	cpus := make([]float64, len(reps))
	walls := make([]float64, len(reps))
	heaps := make([]float64, len(reps))
	for i, r := range reps {
		scaled[i] = r.scaled
		cpus[i] = r.cpu.Seconds()
		walls[i] = r.wall.Seconds()
		heaps[i] = float64(r.heapPeak) / 1e6
	}
	// Reported, not bounded: the host's load moves it more than any bound
	// (see host_replay_time in ledger.json).
	b.extra = append(b.extra, "", "replay time (host; reported, no bound)",
		fmt.Sprintf("  %-26s %14.6g %-9s median of %d replays of %d requests at the reference speed (min %.4g, max %.4g); CPU median %.4g s, wall median %.4g s; calibration pass median %.4g s against %v",
			"replay", median(scaled), "s", len(scaled), tr.Len(), slices.Min(scaled), slices.Max(scaled), median(cpus), median(walls), median(passes), calRef))
	b.set("heap_peak_mb", median(heaps), "median over %d replays of the peak heap in use", len(heaps))

	s := ref.Summary
	b.check(supportedTail(s.TTFT.N) >= 99, "reference replay: %d TTFT samples cannot support p99", s.TTFT.N)
	b.set("ttft_p50_ms", s.TTFT.P50*1e3, "n=%d first tokens", s.TTFT.N)
	b.set("ttft_p99_ms", s.TTFT.P99*1e3, "n=%d, %d beyond p99; highest supported tail p%g",
		s.TTFT.N, beyond(s.TTFT.N, 99), supportedTail(s.TTFT.N))
	b.set("tbt_p50_ms", s.TBT.P50*1e3, "n=%d token gaps", s.TBT.N)
	b.set("tbt_p99_ms", s.TBT.P99*1e3, "n=%d, %d beyond p99; highest supported tail p%g",
		s.TBT.N, beyond(s.TBT.N, 99), supportedTail(s.TBT.N))
	b.set("slo_met_frac", metSLO(ref, tr),
		"%d of %d sent miss TTFT %v or TBT %v (%v)", ref.MissCauses.Misses, tr.Len(), ref.SLO.TTFT, ref.SLO.TBT, ref.MissCauses)
	b.set("gpu_s_per_req", gpuSeconds(w, ref, tr, w.ref)/float64(tr.Len()),
		"GPU-seconds provisioned over the %.0f s offered window, per request sent", w.span(tr, w.ref).Seconds())

	t0 := time.Now()
	g, probes, err := b.goodput(ref, tr)
	b.check(err == nil, "goodput search: %v", err)
	ceiling := ""
	if g.load > 0.98*g.hi {
		ceiling = " (at the ceiling: the knee may lie above it)"
	}
	b.set("goodput_rps", g.rps, "%s %.4g is the highest feasible load%s; %d loads over [%g, %g], probes took %.3g s",
		w.knob, g.load, ceiling, probes, g.lo, g.hi, time.Since(t0).Seconds())
	return nil
}

// goodputPoint is the result of the goodput search over [lo, hi].
type goodputPoint struct{ load, rps, lo, hi float64 }

// goodput searches the highest load at which at least sloTarget of the
// requests sent meet both SLOs and the run stays stable. The bracket is
// [reference, ceiling], its floor answered by the reference replay; on a
// seed whose knee lies below the reference it is [reference/4, reference].
func (b *bench) goodput(ref *muxwise.Report, refTrace *muxwise.Trace) (goodputPoint, int, error) {
	w := b.w
	exp := muxwise.NewExperiment(w.options("", "")...)
	feasible := func(load float64) (bool, error) {
		rep, tr := ref, refTrace
		if load != w.ref {
			tr = w.gen(b.seed, load)
			rep = b.replay(exp, tr, nil, fmt.Sprintf("goodput probe at %s %.4g", w.knob, load))
			if rep == nil {
				return false, fmt.Errorf("probe at %s %g failed", w.knob, load)
			}
		}
		return metSLO(rep, tr) >= sloTarget && !rep.Summary.Unstable, nil
	}
	lo, hi := w.ref, w.hi
	if ok, _ := feasible(w.ref); !ok {
		lo, hi = w.ref/4, w.ref
	}
	load, probes, err := bisect(feasible, lo, hi, bisectSteps)
	if err != nil {
		return goodputPoint{}, probes, err
	}
	return goodputPoint{load: load, rps: w.offeredRate(w.gen(b.seed, load), load), lo: lo, hi: hi}, probes, nil
}

// metSLO is the share of the requests sent that met both SLOs.
func metSLO(rep *muxwise.Report, tr *muxwise.Trace) float64 {
	return 1 - float64(rep.MissCauses.Misses)/float64(tr.Len())
}

// gpuSeconds integrates the GPUs provisioned over the offered window
// [0, span]: a single engine holds its GPUs throughout; a fleet replica
// charges from readiness until it went down (the frontier suite's rule).
func gpuSeconds(w *workload, rep *muxwise.Report, tr *muxwise.Trace, load float64) float64 {
	span := w.span(tr, load)
	if rep.Fleet == nil {
		return float64(w.dep.GPUs) * span.Seconds()
	}
	var total float64
	for _, r := range rep.Fleet.Replicas {
		if r.State == cluster.StateStarting {
			continue // never became ready
		}
		to := span
		if r.DownAt > 0 && r.DownAt < to {
			to = r.DownAt
		}
		if r.ReadyAt < to {
			total += float64(r.GPUs) * (to - r.ReadyAt).Seconds()
		}
	}
	return total
}
