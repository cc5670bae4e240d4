package main

// MetricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json at the repository root,
// which a test keeps in step.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd are the metrics of an untraced run. Every workload reports
// every one of them; README.md gives each its per-workload meaning.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"compiles_per_s", "1/s"},
	{"sim_mcycles_per_s", "Mcycle/s"},
	{"sim_cycles", "cycles"},
	{"lt_speedup_pct", "%"},
}

// PerLayer are the metrics of a traced run. A workload that never enters
// a layer reports 0 for it.
var PerLayer = []MetricDef{
	// Compiler phases, per compile, from the phase replay.
	{"hlo.apply_us", "us"},
	{"ddg.build_us", "us"},
	{"ddg.edges", "count"},
	{"ddg.recmii_us", "us"},
	{"ddg.cycles", "count"},
	{"ddg.cycles_truncated", "count"},
	{"core.classify_us", "us"},
	{"core.boosted_loads", "count"},
	{"core.critical_loads", "count"},
	{"modsched.schedule_us", "us"},
	{"modsched.placements", "count"},
	{"sched.iis_tried", "count"},
	{"sched.futile_rungs", "count"},
	{"sched.useful_ratio", "ratio"},
	{"regalloc.allocate_us", "us"},
	{"regalloc.allocs_per_call", "count"},
	{"regalloc.overflows", "count"},
	{"core.codegen_us", "us"},
	{"core.seq_us", "us"},
	{"compile.allocs_per_op", "count"},
	{"compile.bytes_per_op", "B"},
	{"compile.self_us", "us"},
	// Simulator, functional interpreter, cache hierarchy and workload
	// memory images.
	{"sim.run_us", "us"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.allocs_per_cycle", "count"},
	{"interp.run_ns_per_iter", "ns"},
	{"sim.new_runner_us", "us"},
	{"workload.init_mem_ms", "ms"},
	{"sim.unstalled", "cycles"},
	{"sim.exe_bubble", "cycles"},
	{"sim.ozq_bubble", "cycles"},
	{"sim.rse_bubble", "cycles"},
	{"cache.loads_l1", "count"},
	{"cache.loads_l2", "count"},
	{"cache.loads_l3", "count"},
	{"cache.loads_mem", "count"},
	{"sim.ozq_peak", "count"},
	// Service: ltspd spans and /metrics, wire codecs, the generator.
	{"server.request_self_us.hit", "us"},
	{"server.request_self_us.cold", "us"},
	{"server.request_self_us.simulate", "us"},
	{"server.request_self_us.batch", "us"},
	{"server.queue_wait_us", "us"},
	{"server.mem_lookup_us", "us"},
	{"server.disk_read_us", "us"},
	{"server.compile_us", "us"},
	{"server.verify_us", "us"},
	{"server.write_through_us", "us"},
	{"server.mem_hit_frac", "ratio"},
	{"server.disk_hit_frac", "ratio"},
	{"server.miss_frac", "ratio"},
	{"server.shed", "count"},
	{"server.timeouts", "count"},
	{"wire.json_decode_us", "us"},
	{"wire.binary_decode_us", "us"},
	{"wire.hash_us", "us"},
	{"wire.encode_us", "us"},
	{"ltspd.cpu_ms_per_req", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"telemetry.overhead_pct", "%"},
	// End-to-end latencies and knee, reported by the traced run: on a
	// shared two-core host they move too much from run to run to be
	// bounded.
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"max_rps", "1/s"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"cold_p95_ms", "ms"},
	{"fail_frac", "ratio"},
}
