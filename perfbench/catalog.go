package main

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestCatalogMatchesBenchmarkJSON keeps them equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"devices_per_s", "1/s", "higher"},
	{"cpu_ms_per_device", "ms", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"ok_frac", "frac", "higher"},
	{"region_accuracy", "frac", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is printed by every traced run. A layer the workload does not
// call reads 0 there; README.md names each metric's workload and the
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"tester.parse_ms", "ms", "lower"},
	{"fsim.goodsim_ms", "ms", "lower"},
	{"fsim.cpt_ms", "ms", "lower"},
	{"fsim.cpt_us_per_pattern", "us", "lower"},
	{"cpt.stem_flips", "count", "lower"},
	{"fsim.score_ms", "ms", "lower"},
	{"fsim.score_us_per_seed", "us", "lower"},
	{"fsim.cone_gate_word_evals", "count", "lower"},
	{"core.seeds", "count", "lower"},
	{"core.tail_ms", "ms", "lower"},
	{"core.render_ms", "ms", "lower"},
	{"volume.decode_us", "us", "lower"},
	{"volume.fingerprint_us", "us", "lower"},
	{"volume.cache_get_us", "us", "lower"},
	{"volume.aggregate_us", "us", "lower"},
	{"volume.other_us", "us", "lower"},
	{"volume.hit_frac", "frac", "higher"},
	{"volume.engine_runs", "count", "lower"},
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"serve.queue_wait_tail_ms", "ms", "lower"},
	{"serve.engine_ms", "ms", "lower"},
	{"serve.http_ms", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"fsim.cone_cache_hit_frac", "frac", "higher"},
	{"serve.shed_frac", "frac", "lower"},
	{"loadgen.late_ms", "ms", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
}
