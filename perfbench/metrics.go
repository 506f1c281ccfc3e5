package main

// metricDef declares one reported metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEndMetrics are reported with --trace 0, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"output_tok_s", "tok/s", "higher"},
	{"ttft_p50_ms", "ms", "lower"},
	{"ttft_tail_ms", "ms", "lower"},
	{"tpot_p50_ms", "ms", "lower"},
	{"tpot_tail_ms", "ms", "lower"},
	{"slo_attainment", "share", "higher"},
	{"completed_share", "share", "higher"},
	{"output_match", "share", "higher"},
	{"quality_ppl", "ppl", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics are reported with --trace 1.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"setup.model_new_s", "s", "lower"},
		{"setup.build_engines_s", "s", "lower"},
		{"setup.server_start_s", "s", "lower"},
		{"serve.queue_wait_p50_ms", "ms", "lower"},
		{"serve.queue_wait_tail_ms", "ms", "lower"},
		{"serve.prefill_stage_p50_ms", "ms", "lower"},
		{"serve.mean_batch", "requests", "higher"},
		{"serve.iterations", "count", "lower"},
		{"serve.fused_token_share", "share", "higher"},
		{"serve.preemptions", "count", "lower"},
		{"serve.rejected", "count", "lower"},
		{"model.fused_steps", "count", "lower"},
		{"model.fused_step_mean_ms", "ms", "lower"},
		{"model.iter_busy_s", "s", "lower"},
		{"model.non_gemm_share", "share", "lower"},
	}
	for _, k := range weightKinds {
		site := "gemm." + siteName(k)
		defs = append(defs,
			metricDef{site + ".ms", "ms", "lower"},
			metricDef{site + ".calls", "count", "lower"},
			metricDef{site + ".rows_mean", "rows", "higher"})
	}
	return append(defs,
		metricDef{"gemm.decode.ms", "ms", "lower"},
		metricDef{"gemm.prefill.ms", "ms", "lower"},
		metricDef{"gemm.decode.gops_s", "Gop/s", "higher"},
		metricDef{"gemm.prefill.gops_s", "Gop/s", "higher"},
		metricDef{"gemm.bytes_mb", "MB", "lower"},
		metricDef{"prefix.hit_share", "share", "higher"},
		metricDef{"prefix.skipped_token_share", "share", "higher"},
		metricDef{"prefix.evictions", "count", "lower"},
		metricDef{"prefix.cached_rows", "rows", "lower"},
		metricDef{"kv.peak_rows", "rows", "lower"},
		metricDef{"kv.peak_mb", "MB", "lower"},
		metricDef{"kv.page_allocs", "count", "lower"},
		metricDef{"kv.page_frees", "count", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"go.alloc_bytes_per_token", "B/tok", "lower"},
		metricDef{"loadgen.late_tail_ms", "ms", "lower"},
		metricDef{"loadgen.late_max_ms", "ms", "lower"},
		metricDef{"trace.overhead", "ratio", "higher"},
	)
}()
