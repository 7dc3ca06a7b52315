package main

// layerMetric is one declared per-layer metric, as BENCHMARK.json lists it.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric a traced run reports, in the order
// BENCHMARK.json declares them. A metric a workload does not exercise (GPS
// fixes in city-5k, say) reads 0.
var perLayer = func() []layerMetric {
	var out []layerMetric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit, better})
		}
	}
	for _, b := range allBuckets(layers) {
		add("s", "lower", "cpu_s."+b)
	}
	for _, b := range allBuckets(layers) {
		add("MiB", "lower", "alloc_mb."+b)
	}
	for _, b := range allBuckets(setupLayers) {
		add("s", "lower", "setup_cpu_s."+b)
	}
	add("s", "lower", "phase.summarize_cpu_s", "phase.quiesce_cpu_s")
	add("ratio", "lower", "trace.overhead_ratio")
	add("ns", "lower", "vclock.cpu_ns_per_event")
	add("us", "lower", "simnet.cpu_us_per_frame", "gps.cpu_us_per_fix", "core.cpu_us_per_query")
	add("count", "lower", "vclock.events", "vclock.batches", "vclock.barriers",
		"simnet.frames_sent", "simnet.frames_dropped",
		"refs.umts.requests", "refs.umts.queued", "refs.umts.failures",
		"refs.wifi.finder_queries", "refs.wifi.finder_timeouts", "refs.wifi.route_builds")
	add("count", "higher", "refs.bt.gps_fixes", "core.submitted")
	add("count", "lower", "core.rejected", "core.expired", "core.failovers")
	add("count", "higher", "core.first_items")
	add("vms", "lower", "core.first_item_p50_vms", "core.first_item_p99_vms")
	for _, m := range mechanisms {
		add("vms", "lower", "core.first_item_p99_vms."+m)
	}
	add("ratio", "higher", "cache.hit_ratio")
	add("count", "higher", "mux.attached", "qos.admitted")
	add("count", "lower", "qos.deferred", "qos.degraded", "qos.rejected", "qos.shed")
	add("count", "lower", "tracing.spans", "tracing.traces_dropped")
	for _, p := range tracePhases {
		add("ratio", "lower", "tracing.phase_share."+p)
	}
	add("count", "lower", "chaos.faults", "chaos.unattributed")
	add("count", "higher", "audit.checks")
	add("count", "lower", "audit.violations", "gc.cycles")
	add("s", "lower", "gc.cpu_s")
	add("MiB", "lower", "gc.live_heap_mb")
	return out
}()
