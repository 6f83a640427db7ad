package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_ops_per_s", "ops/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"iops", "ops/s", "higher"},
	{"read_mean_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"write_mean_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"host_cores", "cores", "lower"},
	{"dpu_cores", "cores", "lower"},
}

var perLayerMetrics = func() []metricDef {
	ms := []metricDef{
		{"client.reads", "count", "higher"},
		{"client.writes", "count", "higher"},
		{"client.fsyncs", "count", "higher"},
		{"client.read_p50_us", "us", "lower"},
		{"client.write_p50_us", "us", "lower"},
		{"client.fsync_p50_us", "us", "lower"},
		{"client.fsync_p99_us", "us", "lower"},
		{"failed_ratio", "fraction", "lower"},
		{"sim.switch_ns", "ns", "lower"},
		{"sim.goroutines_left", "count", "lower"},
		{"nvmefs.cmds_per_op", "count", "lower"},
		{"nvmefs.cmds_per_doorbell", "count", "higher"},
		{"nvmefs.retries", "count", "lower"},
		{"nvmefs.timeouts", "count", "lower"},
		{"nvmefs.inflight_peak", "count", "lower"},
		{"nvmefs.self_us_per_op", "us", "lower"},
		{"pcie.dmas_per_op", "count", "lower"},
		{"pcie.dma_bytes_per_op", "bytes", "lower"},
		{"pcie.mmios_per_op", "count", "lower"},
		{"pcie.atomics_per_op", "count", "lower"},
		{"pcie.pios_per_op", "count", "lower"},
		{"dispatch.requests_per_op", "count", "lower"},
		{"dispatch.self_us_per_op", "us", "lower"},
		{"cache.hit_ratio", "fraction", "higher"},
		{"cache.fills_per_op", "count", "lower"},
		{"cache.flushes_per_op", "count", "lower"},
		{"cache.evictions_per_op", "count", "lower"},
		{"cache.prefetches_per_op", "count", "lower"},
		{"cache.errs", "count", "lower"},
		{"cache.self_us_per_op", "us", "lower"},
		{"kvfs.self_us_per_op", "us", "lower"},
		{"kv.ops_per_op", "count", "lower"},
		{"fabric.msgs_per_op", "count", "lower"},
		{"fabric.bytes_per_op", "bytes", "lower"},
		{"dfs.mds_ops_per_op", "count", "lower"},
		{"dfs.ds_ops_per_op", "count", "lower"},
		{"dfs.ec_blocks_per_op", "count", "lower"},
		{"dfs.self_us_per_op", "us", "lower"},
		{"wal.commits", "count", "lower"},
		{"wal.fsyncs_per_barrier", "count", "higher"},
		{"wal.bytes_per_fsync", "bytes", "lower"},
		{"ssd.reads", "count", "lower"},
		{"ssd.writes", "count", "lower"},
		{"ssd.barriers", "count", "lower"},
		{"ssd.bytes_per_user_byte", "fraction", "lower"},
		{"ssd.self_us_per_op", "us", "lower"},
		{"cpu.host_busy_us_per_op", "us", "lower"},
		{"cpu.dpu_busy_us_per_op", "us", "lower"},
	}
	for _, c := range []string{"cpu", "dma", "mmio", "ssd", "wait", "other"} {
		ms = append(ms, metricDef{"prof." + c + "_share", "fraction", "lower"})
	}
	for _, m := range hostModules {
		ms = append(ms, metricDef{"host." + m + ".self_pct", "%", "lower"})
	}
	return append(ms,
		metricDef{"trace.host_overhead_ratio", "ratio", "lower"},
		metricDef{"trace.dropped_spans", "count", "lower"},
	)
}()
