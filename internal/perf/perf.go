// Package perf holds the repo's committed hot-path benchmarks: the core
// engine event loop, the lifecycle-managed cluster fleet, the router
// Pick path, and trace generation. The bodies live here (not in _test
// files) so cmd/muxbench can run them through testing.Benchmark and
// commit the results as BENCH_simcore.json — the per-commit events/sec
// and allocs/request trend CI gates on.
//
// Every benchmark replays a fixed seeded workload, so the work per
// iteration is deterministic: op-to-op variance is the machine, not the
// simulation. Each body reports
//
//	req/op      requests replayed per iteration
//	events/op   simulator events fired per iteration
//	events/s    simulator events dispatched per wall-clock second
//	ns/req      wall-clock nanoseconds per simulated request
//
// alongside the standard ns/op and allocs/op, so allocs/request — the
// machine-independent number the CI gate compares — is AllocsPerOp
// divided by req/op.
package perf

import (
	"testing"

	"muxwise"
	"muxwise/internal/cluster"
	"muxwise/internal/sim"
)

// deployment is the fixed hardware/model point every benchmark runs on:
// one A100 serving Llama-8B, the repo's smallest self-contained config.
func deployment() muxwise.Option {
	return muxwise.WithDeployment(muxwise.Deployment{
		Hardware: "A100", GPUs: 1, Model: "Llama-8B",
	})
}

// report derives the throughput metrics from the iteration totals.
func report(b *testing.B, events, reqs int64) {
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(reqs)/float64(b.N), "req/op")
	if ns := b.Elapsed().Nanoseconds(); ns > 0 && reqs > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(float64(ns)/float64(reqs), "ns/req")
	}
}

// EngineStep replays a ShareGPT trace through a single MuxWise engine —
// the core prefill/decode event loop with no fleet machinery around it.
func EngineStep(b *testing.B) {
	trace := muxwise.ShareGPT(1, 200).WithPoissonArrivals(1, 8)
	var events, reqs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := muxwise.NewExperiment(deployment(), muxwise.WithEngine("MuxWise")).Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Engine.Loop.Fired
		reqs += int64(rep.Summary.Requests)
	}
	b.StopTimer()
	report(b, events, reqs)
}

// FleetTick replays the Fig. 13 bursty mix through a lifecycle-managed
// fleet with the backlog autoscaler — router picks, fleet-controller
// cadence ticks, spawns and retires all on the clock.
func FleetTick(b *testing.B) {
	trace := muxwise.MixedBursty(1, 40, 0.3)
	var events, reqs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := muxwise.NewExperiment(
			deployment(),
			muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 2}),
			muxwise.WithRouter("least-tokens"),
			muxwise.WithAutoscaler("backlog"),
			muxwise.WithScaleBounds(1, 4),
		).Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Fleet.Loop.Fired
		reqs += int64(rep.Summary.Requests)
	}
	b.StopTimer()
	report(b, events, reqs)
}

// RouterPick drives the prefix-affinity policy — the default and most
// stateful router — over a multi-turn trace against a static candidate
// set, isolating the per-arrival Pick cost from the simulation.
func RouterPick(b *testing.B) {
	trace := muxwise.Conversation(1, 100)
	cands := make([]*cluster.Replica, 4)
	for i := range cands {
		cands[i] = &cluster.Replica{ID: i, Name: "bench"}
	}
	policy := cluster.Policies()[cluster.PrefixAffinityPolicy]
	var reqs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh router per iteration: Pick mutates policy state
		// (session stickiness, prefix indexes), and every iteration must
		// replay identical work.
		r := policy()
		for j, req := range trace.Requests {
			view := cluster.FleetView{Now: sim.Time(j), Candidates: cands}
			if rep := r.Pick(req, view); rep == nil {
				b.Fatal("router picked no replica")
			}
		}
		reqs += int64(trace.Len())
	}
	b.StopTimer()
	report(b, reqs, reqs)
}

// TraceGen generates the long-context LooGLE trace and the Fig. 13
// bursty multi-turn mix inside the timer — the set-up cost every run
// pays before its first event, mostly KV page identities.
func TraceGen(b *testing.B) {
	var reqs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs += int64(muxwise.LooGLE(1, 500).Len())
		reqs += int64(muxwise.MixedBursty(1, 200, 0.4).Len())
	}
	b.StopTimer()
	report(b, reqs, reqs)
}
