package main

import "math"

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names with their direction and, for the
// end-to-end ones, the regression bound; the smoke test keeps the two in
// step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs (-trace 0). error_share is reported beside them but is
// carried to the driver by the attempted/failed counts instead. The tail
// percentiles are per-layer diagnostics: see README.md for why.
var endToEnd = []metricDef{latencyP50, peakRSS, setupTime}

var (
	latencyP50 = metricDef{"latency_p50_ms", "ms"}
	peakRSS    = metricDef{"peak_rss_mb", "MiB"}
	setupTime  = metricDef{"setup_s", "s"}
)

// perLayer are the traced run's layer metrics (-trace 1). A workload
// reports 0 for a layer it does not exercise: the rg, core and engine
// rows come from library ops, the service, httpapi, shard and obs rows
// from served requests.
var perLayer = []metricDef{
	{"rg.ms", "ms"},
	{"rg.share", "ratio"},
	{"rg.calls", "count"},
	{"rg.rounds_propose", "count"},
	{"rg.rounds_aggregate", "count"},
	{"rg.rounds_congestion", "count"},
	{"rg.messages", "count"},
	{"core.self_ms", "ms"},
	{"core.strongcarve_calls", "count"},
	{"core.clusters", "count"},
	{"core.colors", "count"},
	{"core.rounds_thm21_gather", "count"},
	{"core.rounds_thm21_bfs", "count"},
	{"engine.self_ms", "ms"},
	{"engine.split_ms", "ms"},
	{"engine.merge_ms", "ms"},
	{"engine.components", "count"},
	{"service.lru_hit_share", "ratio"},
	{"service.disk_hit_share", "ratio"},
	{"service.peer_hit_share", "ratio"},
	{"service.compute_share", "ratio"},
	{"service.dedup_share", "ratio"},
	{"service.disk_hit_ms_p50", "ms"},
	{"service.quarantined", "count"},
	{"service.compute_ms_p50", "ms"},
	{"service.app_hit_share", "ratio"},
	{"service.app_run_ms_p50", "ms"},
	{"httpapi.self_ms_p50", "ms"},
	{"httpapi.response_bytes_mean", "B"},
	{"shard.proxied_share", "ratio"},
	{"shard.proxy_ms_p50", "ms"},
	{"shard.replicas_pushed", "count"},
	{"shard.replica_errors", "count"},
	{"obs.trace_overhead_share", "ratio"},
	{"graphio.upload_ms_p50", "ms"},
	{"graphio.load_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_per_op", "count"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.send_late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"profile.rg", "ratio"},
	{"profile.core", "ratio"},
	{"profile.cluster", "ratio"},
	{"profile.graph", "ratio"},
	{"profile.engine", "ratio"},
	{"profile.service", "ratio"},
	{"profile.httpapi", "ratio"},
	{"profile.shard", "ratio"},
	{"profile.graphio", "ratio"},
	{"profile.obs", "ratio"},
	{"profile.apps", "ratio"},
	{"profile.other", "ratio"},
}

// errorShareMetric is the share of attempted ops that failed or whose
// output failed its check.
var errorShareMetric = metricDef{"error_share", "ratio"}

// value is one reported metric in the driver's JSON shape.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]value

// set records v under def, clamping +Inf (a percentile that landed on a
// failed op) to the largest float so the result stays valid JSON.
func (m metrics) set(def metricDef, v float64) {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	m[def.name] = value{Value: v, Unit: def.unit}
}
