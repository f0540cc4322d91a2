package main

// metricDef describes one reported metric. The end-to-end and per-layer
// tables below are the program's copy of BENCHMARK.json; TestMetricTables
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; -agree
	// compares two result sets with it.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric it should
	// move and the workload it should move it on.
	moves string
	// exact marks a count or simulated output that repeats bit for bit for
	// one seed; -agree requires equality.
	exact bool
}

// endToEnd are the metrics a user of the simulator or the server sees. Every
// workload reports every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{name: "tasks_per_s", unit: "tasks/s", better: "higher", bound: 0.20},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.20},
	{name: "alloc_bytes_per_task", unit: "B/task", better: "lower", bound: 0.10},
	{name: "rss_mib", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the metrics of the traced pass. A layer that a workload does
// not reach through the benchmark's wrappers reports 0.
var perLayer = []metricDef{
	{name: "workload.next_ns", unit: "ns/call", better: "lower", moves: "tasks_per_s on fleet-replay; it is about 1% of solo-backlog and 4% of fleet-backlog"},
	{name: "workload.share", unit: "fraction", better: "lower", moves: "tasks_per_s on fleet-replay"},
	{name: "workload.source_ns", unit: "ns/arrival", better: "lower", moves: "tasks_per_s on fleet-replay (trace decode with no engine attached)"},
	{name: "workload.source_allocs", unit: "allocs/arrival", better: "lower", moves: "alloc_bytes_per_task on fleet-replay"},
	{name: "cluster.route_ns", unit: "ns/call", better: "lower", moves: "tasks_per_s on fleet-backlog"},
	{name: "cluster.route_share", unit: "fraction", better: "lower", moves: "tasks_per_s on fleet-backlog"},
	{name: "cluster.self_share", unit: "fraction", better: "lower", moves: "tasks_per_s and alloc_bytes_per_task on fleet-backlog and fleet-replay"},
	{name: "cluster.dispatches", unit: "count", better: "lower", exact: true, moves: "must not change"},
	{name: "cluster.events", unit: "count", better: "lower", exact: true, moves: "must not change"},
	{name: "cluster.peak_backlog", unit: "count", better: "lower", exact: true, moves: "must not change"},
	{name: "cluster.imbalance", unit: "ratio", better: "lower", exact: true, moves: "max/min shard completed; must not change"},
	{name: "engine.step_ns", unit: "ns/event", better: "lower", moves: "tasks_per_s on solo-backlog"},
	{name: "engine.step_share", unit: "fraction", better: "lower", moves: "tasks_per_s on solo-backlog"},
	{name: "engine.events", unit: "count", better: "lower", exact: true, moves: "must not change"},
	{name: "engine.virtual_events", unit: "count", better: "higher", exact: true, moves: "tasks_per_s on solo-backlog"},
	{name: "engine.fallback_events", unit: "count", better: "lower", exact: true, moves: "tasks_per_s on solo-backlog"},
	{name: "engine.transitions", unit: "count", better: "lower", exact: true, moves: "tasks_per_s on solo-backlog"},
	{name: "engine.alive_peak", unit: "count", better: "lower", exact: true, moves: "must not change"},
	{name: "engine.sink_ns", unit: "ns/call", better: "lower", moves: "tasks_per_s on solo-backlog"},
	{name: "engine.sink_share", unit: "fraction", better: "lower", moves: "tasks_per_s on solo-backlog"},
	{name: "http.fleet_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50 and tasks_per_s on serve-mix"},
	{name: "http.concave_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50 and tasks_per_s on serve-mix"},
	{name: "http.solve_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50 on serve-mix"},
	{name: "http.metrics_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50 on serve-mix; the HTTP and render floor"},
	{name: "http.metrics_bytes", unit: "bytes", better: "lower", moves: "http.metrics_ms_p50 on serve-mix"},
	{name: "http.server_cpu_share", unit: "fraction", better: "higher", moves: "tasks_per_s on serve-mix"},
	{name: "http.client_cpu_share", unit: "fraction", better: "lower", moves: "benchmark overhead on serve-mix"},
	{name: "runtime.gc_per_ktask", unit: "count/ktask", better: "lower", moves: "tasks_per_s on fleet-backlog and fleet-replay"},
	{name: "runtime.gc_cpu_share", unit: "fraction", better: "lower", moves: "tasks_per_s on fleet-backlog and fleet-replay"},
	{name: "runtime.allocs_per_task", unit: "allocs/task", better: "lower", moves: "tasks_per_s and alloc_bytes_per_task on fleet-backlog and fleet-replay"},
	{name: "trace.overhead", unit: "fraction", better: "lower", moves: "untraced over traced throughput, minus 1: the cost of tracing, kept within 10%"},
	{name: "sim.weighted_flow_per_task", unit: "vtime", better: "lower", exact: true, moves: "the paper's objective per task; must not change"},
	{name: "sim.flow_p99", unit: "vtime", better: "lower", exact: true, moves: "must not change"},
}

// unitOf returns the unit of a metric in either table.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
