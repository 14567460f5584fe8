package main

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	name, unit string
}

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []declared{
	{"setup_s", "s"},
	{"guest_minst_s", "Minst/s"},
	{"served_per_s", "1/s"},
	{"req_p50_us", "us"},
	{"req_p99_us", "us"},
	{"cut_p50_us", "us"},
	{"reenable_p50_us", "us"},
	{"downtime_p50_us", "us"},
	{"rollout_us_per_replica", "us"},
	{"replica_mem_kb", "KiB"},
}

// perLayerMetrics are reported by every traced run.
var perLayerMetrics = []declared{
	{"kernel.ns_per_inst", "ns"},
	{"kernel.allocs_per_inst", "count"},
	{"kernel.bytes_per_inst", "B"},
	{"kernel.insts_per_req", "count"},
	{"kernel.syscalls_per_req", "count"},
	{"kernel.bcache.hit_ratio", "ratio"},
	{"kernel.bcache.flushes_per_cut", "count"},
	{"kernel.exec_mode", "enum"},
	{"criu.checkpoint_us", "us"},
	{"criu.decode_us", "us"},
	{"criu.marshal_us", "us"},
	{"criu.unmarshal_us", "us"},
	{"criu.restore_us", "us"},
	{"criu.pages_dumped", "count"},
	{"criu.pages_skipped", "count"},
	{"criu.image_kb", "KiB"},
	{"pagestore.dedup_ratio", "ratio"},
	{"pagestore.stored_kb", "KiB"},
	{"crit.edit_us", "us"},
	{"crit.blocks_patched", "count"},
	{"core.handler_us", "us"},
	{"core.validate_us", "us"},
	{"core.health_us", "us"},
	{"core.self_us", "us"},
	{"core.attempts_per_cut", "count"},
	{"core.rollbacks", "count"},
	{"core.cut_p90_us", "us"},
	{"fleet.makespan_ms", "ms"},
	{"fleet.spawn_us_per_replica", "us"},
	{"fleet.parallel_speedup", "ratio"},
	{"fleet.committed_ratio", "ratio"},
	{"fleet.serial_vticks", "vticks"},
	{"fleet.fleet_vticks", "vticks"},
	{"trace.snapshot_us", "us"},
	{"trace.blocks_per_snapshot", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_count", "count"},
	{"go.heap_peak_mb", "MiB"},
	{"host.wall_over_cpu", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}
