package main

// metricDecl declares one reported metric; BENCHMARK.json at the
// repository root lists the same names and units.
type metricDecl struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the simulator waits for or pays.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower"},
	{"setup_mb", "MB", "lower"},
	{"ticks_per_s", "ticks/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p90_ms", "ms", "lower"},
}

// perLayerMetrics are the traced run's layer numbers, grouped by layer.
// README.md names the end-to-end metric each one should move.
var perLayerMetrics = []metricDecl{
	{"mat.solve_us", "us", "lower"},
	{"mat.solve_flops", "flop-computed", "lower"},
	{"mat.solve_bytes", "B-computed", "lower"},
	{"mat.nnz_l", "count", "lower"},
	{"mat.supernodes", "count", "lower"},
	{"mat.mean_panel_width", "cols", "higher"},
	{"mat.solve_batch_us_per_rhs", "us", "lower"},
	{"mat.analyze_ms", "ms", "lower"},
	{"mat.factor_ms", "ms", "lower"},
	{"rcnet.step_us", "us", "lower"},
	{"rcnet.factorizations", "count", "lower"},
	{"rcnet.steady_ms", "ms", "lower"},
	{"platform.symbolic_ms", "ms", "lower"},
	{"platform.lut_ms", "ms", "lower"},
	{"platform.weights_ms", "ms", "lower"},
	{"platform.cache_hits", "count", "higher"},
	{"platform.cache_misses", "count", "lower"},
	{"platform.lut_builds", "count", "lower"},
	{"platform.weight_builds", "count", "lower"},
	{"sim.tick_us", "us", "lower"},
	{"sim.new_ms", "ms", "lower"},
	{"sim.batched_frac", "ratio", "higher"},
	{"sim.solves_per_tick", "ratio", "lower"},
	{"controller.refits_per_run", "count", "lower"},
	{"runtime.alloc_mb_per_ktick", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.first_frame_ms", "ms", "lower"},
	{"service.exec_ms", "ms", "lower"},
	{"service.report_ms", "ms", "lower"},
	{"service.stream_bytes", "B", "lower"},
	{"service.evictions", "count", "lower"},
	{"campaign.submit_ms", "ms", "lower"},
	{"campaign.results_ms", "ms", "lower"},
	{"campaign.results_persisted", "count", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
