package main

// Metric kinds. Host numbers are what the simulator costs the machine
// running it and move with machine noise; simulated numbers are the
// serving behaviour of the modelled deployment and are deterministic for
// a seed.
const (
	host      = "host"
	simulated = "simulated"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better, kind string
}

// endToEnd are the numbers a user of the simulator sees, reported with
// --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", host},
	{"heap_peak_mb", "MB", "lower", host},
	{"ttft_p50_ms", "ms", "lower", simulated},
	{"ttft_p99_ms", "ms", "lower", simulated},
	{"tbt_p50_ms", "ms", "lower", simulated},
	{"tbt_p99_ms", "ms", "lower", simulated},
	{"slo_met_frac", "ratio", "higher", simulated},
	{"goodput_rps", "req/s", "higher", simulated},
	{"gpu_s_per_req", "GPU-s/req", "lower", simulated},
}

// perLayer are the numbers of single modules, reported with --trace 1.
var perLayer = []metricDef{
	{"workload.gen_ms", "ms", "lower", host},

	{"sim.events", "count", "lower", simulated},
	{"sim.canceled_frac", "ratio", "lower", simulated},
	{"sim.max_pending", "count", "lower", simulated},
	{"sim.ns_per_event", "ns", "lower", host},

	{"gpu.kernels", "count", "lower", simulated},
	{"gpu.sm_util", "ratio", "higher", simulated},
	{"gpu.launch_frac", "ratio", "lower", simulated},

	{"core.decode_iters", "count", "lower", simulated},
	{"core.decode_bs_p50", "count", "higher", simulated},
	{"core.decode_iter_ms_p50", "ms", "lower", simulated},
	{"core.decode_iter_ms_p99", "ms", "lower", simulated},
	{"core.decode_sms_p50", "count", "lower", simulated},
	{"core.prefill_phases", "count", "lower", simulated},
	{"core.prefill_phase_ms_p99", "ms", "lower", simulated},

	{"cost.decode_ratio_p50", "ratio", "lower", simulated},
	{"cost.decode_ratio_p99", "ratio", "lower", simulated},
	{"cost.ns_per_query", "ns", "lower", host},

	{"kvcache.hit_frac", "ratio", "higher", simulated},
	{"kvcache.evictions", "count", "lower", simulated},
	{"kvcache.ns_per_op", "ns", "lower", host},

	{"serve.queue_wait_ms_p50", "ms", "lower", simulated},
	{"serve.queue_wait_ms_p99", "ms", "lower", simulated},
	{"serve.goodput_tbt_rps", "req/s", "higher", simulated},

	{"cluster.replicas_peak", "count", "lower", simulated},
	{"cluster.spawns", "count", "lower", simulated},
	{"cluster.retires", "count", "lower", simulated},
	{"cluster.unrouted", "count", "lower", simulated},

	{"epp.picks", "count", "lower", simulated},
	{"epp.pick_us_p50", "us", "lower", host},
	{"epp.pick_us_p99", "us", "lower", host},
	{"epp.session_hit_frac", "ratio", "higher", simulated},

	{"metrics.summarize_ms", "ms", "lower", host},

	{"obs.events", "count", "lower", simulated},
	{"obs.overhead_frac", "ratio", "lower", host},

	{"runtime.alloc_mb", "MB", "lower", host},
	{"runtime.gc_cycles", "count", "lower", host},

	{"cpu.sim_frac", "ratio", "lower", host},
	{"cpu.gpu_frac", "ratio", "lower", host},
	{"cpu.core_frac", "ratio", "lower", host},
	{"cpu.serve_frac", "ratio", "lower", host},
	{"cpu.cluster_frac", "ratio", "lower", host},
	{"cpu.epp_frac", "ratio", "lower", host},
	{"cpu.kvcache_frac", "ratio", "lower", host},
	{"cpu.metrics_frac", "ratio", "lower", host},
	{"cpu.estimator_frac", "ratio", "lower", host},
	{"cpu.roofline_frac", "ratio", "lower", host},
	{"cpu.model_frac", "ratio", "lower", host},
	{"cpu.workload_frac", "ratio", "lower", host},
	{"cpu.obs_frac", "ratio", "lower", host},
	{"cpu.runtime_frac", "ratio", "lower", host},
	{"cpu.bench_frac", "ratio", "lower", host},
	{"cpu.other_frac", "ratio", "lower", host},
}
