package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them.
var workloadNames = []string{"ddos-overlay", "fattree-crowd", "live-loopback"}

// endToEnd are the metrics an untraced run (--trace 0) reports, on every
// workload. Failures are in the result's attempted/failed fields. The p99
// flow-setup latency is too unsteady on a small shared host to gate on,
// so traced runs report it as harness.setup_p99_ms.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"live_fps", "1/s"},
	{"setup_p50_ms", "ms"},
}

// perLayer are the metrics a traced run (--trace 1) reports, on every
// workload. A metric of a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"sim.slowest_second_s", "s"},
	{"sim.self_s", "s"},

	{"flowtable.rules_peak", "count"},
	{"flowtable.insert_us", "us"},
	{"flowtable.lookup_ns", "ns"},
	{"flowtable.expire_ms", "ms"},
	{"flowtable.self_s", "s"},

	{"topo.path_us", "us"},
	{"topo.self_s", "s"},

	{"device.pktin_sent", "count"},
	{"device.pktin_dropped", "count"},
	{"device.rules_installed", "count"},
	{"device.rules_deleted", "count"},
	{"device.self_s", "s"},

	{"openflow.marshal_ns", "ns"},
	{"openflow.unmarshal_ns", "ns"},
	{"packet.parse_ns", "ns"},
	{"openflow.self_s", "s"},
	{"packet.self_s", "s"},

	{"controller.packet_ins", "count"},
	{"controller.flow_mods", "count"},
	{"scotch.requests", "count"},
	{"scotch.overlay_ratio", "ratio"},
	{"controller.self_s", "s"},
	{"scotch.self_s", "s"},

	{"capture.self_s", "s"},
	{"metrics.self_s", "s"},
	{"workload.self_s", "s"},

	{"ofnet.punt_us", "us"},
	{"ofnet.handler_us", "us"},
	{"ofnet.return_us", "us"},
	{"ofnet.write_errors", "count"},
	{"ofnet.self_s", "s"},
	{"net.self_s", "s"},

	{"gc.cycles", "count"},
	{"gc.cpu_s", "s"},
	{"gc.allocs", "count"},
	{"gc.alloc_mb", "MB"},

	{"harness.setup_p99_ms", "ms"},
	{"harness.gen_late_ms", "ms"},
	{"harness.trace_overhead", "ratio"},
}

// profileLayers are the layers whose CPU self time the traced run reports
// as <layer>.self_s.
var profileLayers = []string{
	"sim", "flowtable", "topo", "device", "openflow", "packet",
	"controller", "scotch", "capture", "metrics", "workload", "ofnet", "net",
}
