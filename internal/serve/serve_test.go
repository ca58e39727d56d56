package serve

import (
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/kvcache"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

func pages(stream uint64, n int) kvcache.Seq { return kvcache.Stream(stream, n) }

func req(id int, input, output int) *workload.Request {
	p := pages(uint64(id), kvcache.PageCount(input, 16))
	all := pages(uint64(id), kvcache.PageCount(input+output, 16))
	return &workload.Request{
		ID: id, InputTokens: input, OutputTokens: output,
		Pages: p, AllPages: all,
	}
}

func TestAdmitReservesAndPins(t *testing.T) {
	pool := kvcache.New(10000, 16)
	r := req(1, 1000, 100)
	run := Admit(pool, r)
	if run == nil {
		t.Fatal("admission failed with ample pool")
	}
	if run.CachedTokens != 0 {
		t.Fatalf("cached = %d on cold pool", run.CachedTokens)
	}
	if pool.Reserved() != 1100 {
		t.Fatalf("reserved = %d, want 1100", pool.Reserved())
	}
	run.Complete(pool)
	if pool.Reserved() != 0 {
		t.Fatalf("reserved after complete = %d", pool.Reserved())
	}
	// Second identical request hits the published KV.
	run2 := Admit(pool, r)
	if run2 == nil {
		t.Fatal("second admission failed")
	}
	if run2.CachedTokens < 900 {
		t.Fatalf("cached = %d, want ≈1000 after publish", run2.CachedTokens)
	}
}

func TestAdmitFailsWhenFull(t *testing.T) {
	pool := kvcache.New(500, 16)
	if run := Admit(pool, req(1, 1000, 100)); run != nil {
		t.Fatal("admission should fail when KV cannot fit")
	}
}

func TestAbortReleasesWithoutPublishing(t *testing.T) {
	pool := kvcache.New(10000, 16)
	r := req(2, 800, 50)
	run := Admit(pool, r)
	run.Abort(pool)
	if pool.Reserved() != 0 {
		t.Fatalf("reserved after abort = %d", pool.Reserved())
	}
	if got := Admit(pool, r); got.CachedTokens != 0 {
		t.Fatalf("abort must not publish KV; cached = %d", got.CachedTokens)
	}
}

func TestRunningProgress(t *testing.T) {
	run := &Running{R: req(3, 100, 10), CachedTokens: 40}
	if got := run.PrefillRemaining(); got != 60 {
		t.Fatalf("PrefillRemaining = %d, want 60", got)
	}
	run.PrefilledTokens = 60
	if got := run.PrefillRemaining(); got != 0 {
		t.Fatalf("PrefillRemaining = %d, want 0", got)
	}
	if run.CtxTokens() != 100 {
		t.Fatalf("CtxTokens = %d", run.CtxTokens())
	}
	run.Generated = 10
	if !run.DecodeDone() {
		t.Fatal("DecodeDone should be true")
	}
}

func TestBatchStep(t *testing.T) {
	rec := metrics.NewRecorder()
	var b Batch
	a := &Running{R: req(1, 10, 2), Generated: 1}
	c := &Running{R: req(2, 10, 5), Generated: 1}
	rec.Arrive(1, 0, 10, 0)
	rec.Arrive(2, 0, 10, 0)
	b.Add(a)
	b.Add(c)
	fin := b.Step(sim.Second, rec)
	if len(fin) != 1 || fin[0] != a {
		t.Fatalf("finished = %v, want request 1", fin)
	}
	if b.Size() != 1 {
		t.Fatalf("batch size = %d, want 1", b.Size())
	}
	if got := b.TotalCtx(); got != 12 {
		t.Fatalf("TotalCtx = %d, want 12", got)
	}
}

// fakeEngine serves requests with fixed synthetic latencies so the runner
// and goodput helpers can be tested in isolation.
type fakeEngine struct {
	env   *Env
	delay sim.Time
	gap   sim.Time
}

func (f *fakeEngine) Name() string                { return "fake" }
func (f *fakeEngine) Timeline() *metrics.Timeline { return &metrics.Timeline{} }
func (f *fakeEngine) Devices() []*gpu.Device      { return nil }
func (f *fakeEngine) Submit(r *workload.Request) {
	at := f.env.Sim.Now() + f.delay
	for i := 0; i < r.OutputTokens; i++ {
		i := i
		f.env.Sim.At(at+sim.Time(i)*f.gap, func() {
			f.env.Rec.Token(r.ID, f.env.Sim.Now())
			if i == r.OutputTokens-1 {
				f.env.Rec.Finish(r.ID, f.env.Sim.Now())
			}
		})
	}
}

func fakeFactory(delay, gap sim.Time) Factory {
	return func(env *Env) Engine { return &fakeEngine{env: env, delay: delay, gap: gap} }
}

func testCfg() Config {
	return Config{
		Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B(),
		SLO: metrics.SLO{TTFT: sim.Second, TBT: 50 * sim.Millisecond},
	}
}

func smallTrace(n int) *workload.Trace {
	tr := &workload.Trace{Name: "small"}
	for i := 0; i < n; i++ {
		r := req(i, 100, 5)
		r.Arrival = sim.Time(i) * 100 * sim.Millisecond
		tr.Requests = append(tr.Requests, r)
	}
	return tr
}

func TestRunnerBasics(t *testing.T) {
	res := Run(fakeFactory(20*sim.Millisecond, 10*sim.Millisecond), testCfg(), smallTrace(10))
	if res.Summary.Requests != 10 || res.Summary.Finished != 10 {
		t.Fatalf("requests/finished = %d/%d", res.Summary.Requests, res.Summary.Finished)
	}
	if got := res.Summary.TTFT.Avg; got < 0.019 || got > 0.021 {
		t.Fatalf("TTFT avg = %v, want 20ms", got)
	}
	if got := res.Summary.TBT.Avg; got < 0.009 || got > 0.011 {
		t.Fatalf("TBT avg = %v, want 10ms", got)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	a := Run(fakeFactory(time20(), 10*sim.Millisecond), testCfg(), smallTrace(20)).Summary
	b := Run(fakeFactory(time20(), 10*sim.Millisecond), testCfg(), smallTrace(20)).Summary
	if a.TTFT != b.TTFT || a.TBT != b.TBT {
		t.Fatal("runner not deterministic")
	}
}

func time20() sim.Time { return 20 * sim.Millisecond }

func TestPoolTokensHelper(t *testing.T) {
	env := Env{Spec: gpu.A100(), Arch: model.Llama8B(), ReserveFrac: 0.1}
	one := env.PoolTokens(1)
	eight := env.PoolTokens(8)
	if one <= 0 || eight <= one*7 {
		t.Fatalf("pool tokens scaling wrong: 1 GPU %d, 8 GPUs %d", one, eight)
	}
}

func TestProbeAndSweep(t *testing.T) {
	mk := func(rate float64) *workload.Trace { return smallTrace(20) }
	// Fast engine: 10ms TBT < 50ms SLO → meets.
	p := Probe(fakeFactory(10*sim.Millisecond, 10*sim.Millisecond), testCfg(), mk, 1)
	if p.Attainment < 0.99 || p.Unstable {
		t.Fatalf("fast engine should meet SLO: %+v", p)
	}
	// Slow engine: 80ms gaps violate.
	p2 := Probe(fakeFactory(10*sim.Millisecond, 80*sim.Millisecond), testCfg(), mk, 1)
	if p2.Attainment > 0.01 {
		t.Fatalf("slow engine attainment = %v, want ≈0", p2.Attainment)
	}
	pts := Sweep(fakeFactory(10*sim.Millisecond, 80*sim.Millisecond), testCfg(), mk, []float64{1, 2, 3, 4, 5})
	if len(pts) > 3 {
		t.Fatalf("sweep should stop after repeated misses, got %d points", len(pts))
	}
}

func TestGoodputBisection(t *testing.T) {
	// Engine whose token gap grows with offered rate: passes below
	// rate≈2.5, fails above.
	mk := func(rate float64) *workload.Trace { return smallTrace(20) }
	factory := func(rate *float64) Factory {
		return func(env *Env) Engine {
			gap := sim.Time(float64(20*sim.Millisecond) * *rate)
			return &fakeEngine{env: env, delay: 10 * sim.Millisecond, gap: gap}
		}
	}
	var current float64
	f := func(env *Env) Engine { return factory(&current)(env) }
	mkTrack := func(rate float64) *workload.Trace {
		current = rate
		return mk(rate)
	}
	g := Goodput(f, testCfg(), mkTrack, 0.5, 8)
	if g < 1.5 || g > 3.0 {
		t.Fatalf("goodput = %v, want ≈2.5 (gap crosses 50ms there)", g)
	}
	// Engine failing even at the floor → 0.
	bad := Goodput(fakeFactory(10*sim.Millisecond, 200*sim.Millisecond), testCfg(), mk, 0.5, 8)
	if bad != 0 {
		t.Fatalf("failing engine goodput = %v, want 0", bad)
	}
}
