package main

// metricDef names one reported metric. bound is the share of the
// baseline's median by which an end-to-end metric may get worse before a
// change counts as a regression (0 for per-layer metrics, which have
// none). BENCHMARK.json repeats these tables; a test keeps them equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

var endToEnd = []metricDef{
	{"throughput_tps", "1/s", "higher", 0.25},
	{"latency_lo_p50_us", "us", "lower", 0.25},
	{"latency_lo_p90_us", "us", "lower", 0.25},
	{"latency_hi_p50_us", "us", "lower", 0.25},
	{"reconfig_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "gen.late_p99_us", unit: "us", better: "lower"},
	{name: "gen.inject_block_share", unit: "share", better: "lower"},
	{name: "gen.over_limit_share", unit: "share", better: "lower"},
	{name: "engine.inject_ns", unit: "ns", better: "lower"},
	{name: "engine.source_hop_us", unit: "us", better: "lower"},
	{name: "engine.hop_local_us", unit: "us", better: "lower"},
	{name: "engine.hop_remote_us", unit: "us", better: "lower"},
	{name: "engine.hop_remote_p99_us", unit: "us", better: "lower"},
	{name: "engine.locality", unit: "share", better: "higher"},
	{name: "engine.load_imbalance", unit: "ratio", better: "lower"},
	{name: "engine.exec_busy_share_a", unit: "share", better: "lower"},
	{name: "engine.exec_busy_share_b", unit: "share", better: "lower"},
	{name: "engine.single_pipeline_ns", unit: "ns", better: "lower"},
	{name: "engine.collect_stats_ms", unit: "ms", better: "lower"},
	{name: "engine.deploy_ms", unit: "ms", better: "lower"},
	{name: "engine.keys_migrated", unit: "count", better: "lower"},
	{name: "routing.route_table_ns", unit: "ns", better: "lower"},
	{name: "routing.route_fallback_ns", unit: "ns", better: "lower"},
	{name: "routing.table_hit_share", unit: "share", better: "higher"},
	{name: "spacesaving.pair_add_ns", unit: "ns", better: "lower"},
	{name: "spacesaving.pairs_reported", unit: "count", better: "higher"},
	{name: "topology.process_ns", unit: "ns", better: "lower"},
	{name: "transport.wire_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "transport.encode_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "transport.tuples_per_frame", unit: "count", better: "higher"},
	{name: "transport.frames_per_writev", unit: "count", better: "higher"},
	{name: "transport.syscalls_per_ktuple", unit: "count", better: "lower"},
	{name: "transport.compression_ratio", unit: "ratio", better: "higher"},
	{name: "transport.dict_hit_share", unit: "share", better: "higher"},
	{name: "transport.forward_ns", unit: "ns", better: "lower"},
	{name: "transport.flush_timer_share_lo", unit: "share", better: "lower"},
	{name: "transport.flush_timer_share_sat", unit: "share", better: "lower"},
	{name: "transport.rtt_us", unit: "us", better: "lower"},
	{name: "state.extract_install_us_per_key", unit: "us", better: "lower"},
	{name: "keygraph.build_ms", unit: "ms", better: "lower"},
	{name: "keygraph.vertices", unit: "count", better: "lower"},
	{name: "keygraph.edges", unit: "count", better: "lower"},
	{name: "partition.partition_ms", unit: "ms", better: "lower"},
	{name: "partition.cut_share", unit: "share", better: "lower"},
	{name: "partition.imbalance", unit: "ratio", better: "lower"},
	{name: "core.candidate_ms", unit: "ms", better: "lower"},
	{name: "core.compute_tables_ms", unit: "ms", better: "lower"},
	{name: "core.locality_after", unit: "share", better: "higher"},
	{name: "core.locality_gap", unit: "share", better: "lower"},
	{name: "core.latency_during_p50_us", unit: "us", better: "lower"},
	{name: "core.latency_during_p99_us", unit: "us", better: "lower"},
	{name: "runtime.allocs_per_tuple", unit: "count", better: "lower"},
	{name: "runtime.bytes_per_tuple", unit: "B", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "share", better: "lower"},
	{name: "runtime.gc_pause_max_us", unit: "us", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "runtime.goroutines", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.budget_residual_share", unit: "share", better: "lower"},
}
