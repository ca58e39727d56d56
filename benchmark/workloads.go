package main

import (
	"fmt"

	"muxwise"
)

// Knob names the load parameter a workload's goodput search moves.
const (
	knobRate  = "rate"  // Poisson arrival rate, req/s
	knobScale = "scale" // burst-profile scale of the Fig. 13 mix
)

// workload is one seeded serving scenario: a deployment, its SLO, a trace
// generator parameterised by the load knob, and the reference load the
// end-to-end metrics are read at. Every arrival is fixed by the generator
// before the run (an open loop in simulated time), so TTFT counts from
// each request's scheduled arrival and no generator can fall behind.
type workload struct {
	name string
	why  string

	dep   muxwise.Deployment
	cost  string // muxwise cost model name
	fleet bool
	// sharesPrefixes tells whether requests of the trace share KV
	// prefixes; a run without them must see no prefix-cache hit.
	sharesPrefixes bool
	router         string // fleet only
	scaler         string // fleet only

	knob string
	// ref is the reference load the end-to-end metrics are read at and
	// the floor of the goodput search.
	ref float64
	// hi is the ceiling of the goodput search, above every seed's knee.
	hi float64

	// gen builds the trace for a seed at a load.
	gen func(seed uint64, load float64) *muxwise.Trace
	// span is the offered window of a trace generated at load: arrivals
	// fall inside [0, span].
	span func(tr *muxwise.Trace, load float64) muxwise.Time
}

const (
	sharegptRequests = 16000
	loogleRequests   = 4000

	// fleetWindows back-to-back copies of the 20-minute bursty profile
	// make one fleet trace. fleetSessions per workload per window is more
	// than the profile admits up to scale 1.5, so up to there the profile
	// alone sets the request count and the burst scale sets the load.
	fleetWindows  = 3
	fleetSessions = 1000
	fleetReplicas = 4
)

const llama8B = "Llama-8B"

// workloads lists the benchmark's scenarios in the order they are
// documented in BENCHMARK.json.
var workloads = []*workload{
	{
		name: "engine-sharegpt",
		why:  "one engine, short unshared prompts: event loop, device model, SM-split scheduler and fitted estimator do the work; no router, every radix lookup misses",
		dep: muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: llama8B,
			SLO: muxwise.SLO{TTFT: muxwise.Second, TBT: 50 * muxwise.Millisecond}},
		cost: muxwise.CostFitted,
		knob: knobRate, ref: 12, hi: 24,
		gen: func(seed uint64, rate float64) *muxwise.Trace {
			return muxwise.ShareGPT(seed, sharegptRequests).WithPoissonArrivals(seed, rate)
		},
		span: lastArrival,
	},
	{
		name: "fleet-multiturn",
		why:  "four replicas behind prefix-affinity with the backlog autoscaler on bursty multi-turn traffic: EPP picks, prefix reuse, fleet ticks, spawns and retires",
		dep: muxwise.Deployment{Hardware: "A100", GPUs: 2, Model: llama8B,
			SLO: muxwise.SLO{TTFT: 5 * muxwise.Second, TBT: 50 * muxwise.Millisecond}},
		cost:  muxwise.CostFitted,
		fleet: true, router: "prefix-affinity", scaler: "backlog",
		sharesPrefixes: true,
		knob:           knobScale, ref: 0.4, hi: 1.1,
		gen: fleetTrace,
		span: func(_ *muxwise.Trace, scale float64) muxwise.Time {
			return fleetWindows * muxwise.ConversationProfile(scale).Duration
		},
	},
	{
		name: "longctx-loogle",
		why:  "one TP2 engine on 3.4k-81k token prompts with the roofline cost model: layer-wise prefill, prefill/decode SM contention, KV-pool pressure",
		dep: muxwise.Deployment{Hardware: "H100", GPUs: 2, Model: llama8B,
			SLO: muxwise.SLO{TTFT: 10 * muxwise.Second, TBT: 50 * muxwise.Millisecond}},
		cost: muxwise.CostRoofline,
		knob: knobRate, ref: 0.5, hi: 1.1,
		gen: func(seed uint64, rate float64) *muxwise.Trace {
			return muxwise.LooGLE(seed, loogleRequests).WithPoissonArrivals(seed, rate)
		},
		span: lastArrival,
	},
}

// workloadByName resolves a --workload argument.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options builds the experiment for the workload. router and scaler
// override the fleet's policy names (the traced run passes its timing
// wrappers); empty keeps the workload's own.
func (w *workload) options(router, scaler string) []muxwise.Option {
	opts := []muxwise.Option{muxwise.WithDeployment(w.dep), muxwise.WithCostModel(w.cost)}
	if !w.fleet {
		return append(opts, muxwise.WithEngine("MuxWise"))
	}
	if router == "" {
		router = w.router
	}
	if scaler == "" {
		scaler = w.scaler
	}
	return append(opts,
		muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: fleetReplicas}),
		muxwise.WithRouter(router),
		muxwise.WithAutoscaler(scaler),
		muxwise.WithScaleBounds(2, 8),
	)
}

// offeredRate converts a load knob into the mean offered req/s of the
// trace it generates: the Poisson rate itself, or for the burst profile
// the requests sent over the offered window.
func (w *workload) offeredRate(tr *muxwise.Trace, load float64) float64 {
	if w.knob == knobRate {
		return load
	}
	return float64(tr.Len()) / w.span(tr, load).Seconds()
}

// lastArrival is the offered window of a Poisson trace.
func lastArrival(tr *muxwise.Trace, _ float64) muxwise.Time {
	var last muxwise.Time
	for _, r := range tr.Requests {
		if r.Arrival > last {
			last = r.Arrival
		}
	}
	return last
}

// fleetTrace stitches fleetWindows independent Fig. 13 mixes end to end,
// each shifted by one profile duration, so one replay sees several burst
// cycles and its tail percentiles rest on more requests than a single
// 20-minute profile admits. Window seeds are derived from the workload
// seed so neighbouring seeds share no window.
func fleetTrace(seed uint64, scale float64) *muxwise.Trace {
	period := muxwise.ConversationProfile(scale).Duration
	parts := make([]*muxwise.Trace, fleetWindows)
	for k := range parts {
		tr := muxwise.MixedBursty(seed<<8|uint64(2*k), fleetSessions, scale)
		for _, r := range tr.Requests {
			r.Arrival += muxwise.Time(k) * period
		}
		parts[k] = tr
	}
	return muxwise.MixTraces("MixedBursty", parts...)
}
