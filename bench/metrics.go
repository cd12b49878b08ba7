package main

// metric is one entry of the benchmark's catalogue. BENCHMARK.json lists
// the same names and units with their direction and bound; the smoke test
// holds the two together.
type metric struct {
	name, unit string
}

// catalogue returns the metrics a run of the given mode reports.
func catalogue(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// endToEnd are the metrics of the untraced run. Every workload reports
// all of them about its own unit of work (see README.md).
var endToEnd = []metric{
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run, named layer.metric after
// the package the time or count belongs to. A workload that never enters
// a layer reports 0 for it.
var perLayer = []metric{
	{"traffic.diff_us", "us"},
	{"traffic.pairs_changed", "count"},
	{"core.delta_us", "us"},
	{"core.snapshot_us", "us"},
	{"core.pairs_resolved", "count"},
	{"core.fallbacks", "ratio"},
	{"core.full_alloc_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.solve_allocs", "count"},
	{"fabric.clone_us", "us"},
	{"fabric.compile_us", "us"},
	{"fabric.expected_us", "us"},
	{"fabric.change_ops", "count"},
	{"fabric.ops_per_pair", "count"},
	{"fabric.build_us", "us"},
	{"control.reconfigure_ms", "ms"},
	{"control.drain_ms", "ms"},
	{"control.switch_ms", "ms"},
	{"control.retune_ms", "ms"},
	{"control.undrain_ms", "ms"},
	{"control.ops", "count"},
	{"control.us_per_op", "us"},
	{"control.audit_ms", "ms"},
	{"control.rpcs", "count"},
	{"control.audit_rpcs", "count"},
	{"control.probe_ms", "ms"},
	{"control.testbed_ms", "ms"},
	{"control.errors", "count"},
	{"history.record_us", "us"},
	{"history.summaries_us", "us"},
	{"history.get_us", "us"},
	{"daemon.self_us", "us"},
	{"daemon.noop_ticks", "ratio"},
	{"daemon.allocs_per_tick", "count"},
	{"daemon.status_us", "us"},
	{"daemon.first_step_ms", "ms"},
	{"topoapi.paths_us", "us"},
	{"topoapi.whatif_us", "us"},
	{"topoapi.critical_k1_us", "us"},
	{"topoapi.critical_k2_ms", "ms"},
	{"topoapi.history_us", "us"},
	{"topoapi.encode_us", "us"},
	{"topoapi.resp_bytes", "count"},
	{"telemetry.render_us", "us"},
	{"graph.kshortest_us", "us"},
	{"graph.without_edges_us", "us"},
	{"graph.dijkstra_us", "us"},
	{"graph.scenarios_k2", "count"},
	{"hose.worstcase_us", "us"},
	{"chaos.audit_us_per_scenario", "us"},
	{"chaos.audit_allocs_per_scenario", "count"},
	{"chaos.scenarios", "count"},
	{"chaos.inadmissible", "ratio"},
	{"plan.route_ms", "ms"},
	{"plan.amps_ms", "ms"},
	{"plan.cutthrough_ms", "ms"},
	{"plan.provision_ms", "ms"},
	{"cost.price_us", "us"},
	{"fibermap.generate_us", "us"},
	{"fibermap.place_ms", "ms"},
	{"fleet.dispatch_us", "us"},
	{"fleet.quiesce_ms", "ms"},
	{"fleet.serial_step_ms", "ms"},
	{"fleet.parallel_efficiency", "ratio"},
	{"fleet.metrics_merge_ms", "ms"},
	{"fleet.status_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
}
