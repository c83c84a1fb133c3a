package httpapi

// Hand-rolled Prometheus text exposition (version 0.0.4) of the service
// counters — no client library dependency, just the format: one optional
// HELP/TYPE comment pair per family, then `name{labels} value` samples.
// Counter families end in _total; point-in-time values are gauges.
// Durations are exported in seconds (the Prometheus base unit), as
// float64.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"strongdecomp/internal/obs"
	"strongdecomp/internal/service"
)

// prometheusContentType is the exposition-format content type scrapers
// negotiate for.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates one exposition document. Write errors are
// deliberately ignored: by the time samples are flowing the status line
// is out, and a scraper hanging up mid-scrape is its own problem.
type promWriter struct{ w io.Writer }

func (p promWriter) family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p promWriter) sample(name, labels string, value float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// %g keeps integers integral and avoids trailing-zero noise on the
	// float-valued series.
	fmt.Fprintf(p.w, "%s%s %g\n", name, labels, value)
}

// promLabel renders one escaped label pair.
func promLabel(key, value string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return key + `="` + r.Replace(value) + `"`
}

// promName sanitizes a dynamic counter key into a metric-name suffix.
func promName(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writePrometheus renders a Stats snapshot (plus the optional per-shard
// counter block and, when an obs collector is attached, the latency
// histogram and runtime families) as one exposition document.
func writePrometheus(w io.Writer, st service.Stats, shard map[string]int64, col *obs.Collector) {
	p := promWriter{w: w}

	p.family("strongdecomp_uptime_seconds", "Seconds since the service started.", "gauge")
	p.sample("strongdecomp_uptime_seconds", "", st.Uptime.Seconds())

	totals := []struct {
		name, help string
		value      int64
	}{
		{"strongdecomp_requests_total", "Requests across all algorithms.", st.Requests},
		{"strongdecomp_errors_total", "Failed requests.", st.Errors},
		{"strongdecomp_cache_hits_total", "Requests answered from the result cache (memory or disk tier).", st.CacheHits},
		{"strongdecomp_cache_misses_total", "Requests that missed the result cache.", st.CacheMisses},
		{"strongdecomp_dedup_shared_total", "Requests answered by joining an identical in-flight computation.", st.DedupShared},
		{"strongdecomp_peer_hits_total", "Misses answered from a cluster peer's cache instead of a recompute.", st.PeerHits},
	}
	for _, t := range totals {
		p.family(t.name, t.help, "counter")
		p.sample(t.name, "", float64(t.value))
	}

	p.family("strongdecomp_cached_results", "Entries resident in the result cache.", "gauge")
	p.sample("strongdecomp_cached_results", "", float64(st.CachedResults))
	p.family("strongdecomp_stored_graphs", "Graphs resident in the graph store.", "gauge")
	p.sample("strongdecomp_stored_graphs", "", float64(st.StoredGraphs))

	writePrometheusAlgorithms(p, st.Algorithms)
	writePrometheusApps(p, st.Apps)

	p.family("strongdecomp_jobs_total", "Async jobs by lifecycle event.", "counter")
	p.sample("strongdecomp_jobs_total", promLabel("event", "submitted"), float64(st.Jobs.Submitted))
	p.sample("strongdecomp_jobs_total", promLabel("event", "completed"), float64(st.Jobs.Completed))
	p.sample("strongdecomp_jobs_total", promLabel("event", "failed"), float64(st.Jobs.Failed))
	p.sample("strongdecomp_jobs_total", promLabel("event", "canceled"), float64(st.Jobs.Canceled))
	p.family("strongdecomp_jobs", "Async jobs by current state.", "gauge")
	p.sample("strongdecomp_jobs", promLabel("state", "queued"), float64(st.Jobs.Queued))
	p.sample("strongdecomp_jobs", promLabel("state", "running"), float64(st.Jobs.Running))
	p.sample("strongdecomp_jobs", promLabel("state", "retained"), float64(st.Jobs.Retained))
	// The unlabeled depth gauge duplicates strongdecomp_jobs{state="queued"}
	// on purpose: alert rules want one flat series to threshold on.
	p.family("strongdecomp_jobs_queue_depth", "Async jobs waiting in the bounded queue.", "gauge")
	p.sample("strongdecomp_jobs_queue_depth", "", float64(st.Jobs.Queued))

	p.family("strongdecomp_runner", "Engine counters, by counter name.", "untyped")
	for _, k := range sortedKeys(st.Runner) {
		p.sample("strongdecomp_runner", promLabel("counter", k), float64(st.Runner[k]))
	}

	if st.Persist != nil {
		persist := []struct {
			name, help string
			value      int64
		}{
			{"strongdecomp_persist_graph_saves_total", "Graph snapshots spilled to the disk tier.", st.Persist.GraphSaves},
			{"strongdecomp_persist_result_saves_total", "Result records spilled to the disk tier.", st.Persist.ResultSaves},
			{"strongdecomp_persist_graph_disk_hits_total", "Graph memory misses answered from disk.", st.Persist.GraphDiskHits},
			{"strongdecomp_persist_result_disk_hits_total", "Result memory misses answered from disk.", st.Persist.ResultDiskHits},
			{"strongdecomp_persist_app_saves_total", "Application records spilled to the disk tier.", st.Persist.AppSaves},
			{"strongdecomp_persist_app_disk_hits_total", "App-cache memory misses answered from disk.", st.Persist.AppDiskHits},
			{"strongdecomp_persist_quarantined_total", "Corrupt files renamed aside instead of served.", st.Persist.Quarantined},
			{"strongdecomp_persist_save_errors_total", "Failed spill attempts.", st.Persist.SaveErrors},
		}
		for _, t := range persist {
			p.family(t.name, t.help, "counter")
			p.sample(t.name, "", float64(t.value))
		}
	}

	if len(shard) > 0 {
		// Per-shard cluster counters: dynamic keys from internal/shard,
		// exported verbatim under a stable prefix so dashboards can rely
		// on strongdecomp_shard_proxied_total etc.
		for _, k := range sortedKeys(shard) {
			name := "strongdecomp_shard_" + promName(k)
			typ := "gauge"
			if strings.HasSuffix(k, "_total") {
				typ = "counter"
			}
			p.family(name, "Cluster shard counter "+k+".", typ)
			p.sample(name, "", float64(shard[k]))
		}
	}

	if col != nil {
		writePrometheusObs(p, col)
	}
}

// writePrometheusObs renders the collector-owned families: the latency
// histograms (per endpoint and per algorithm), the in-flight gauge, and
// the Go runtime block.
func writePrometheusObs(p promWriter, col *obs.Collector) {
	writeHistogramVec(p, "strongdecomp_http_request_duration_seconds",
		"HTTP request latency by endpoint (method plus route pattern).",
		"endpoint", col.Endpoints())
	writeHistogramVec(p, "strongdecomp_algorithm_duration_seconds",
		"Fresh computation latency by algorithm (cache hits excluded).",
		"algorithm", col.Algorithms())
	writeHistogramVec(p, "strongdecomp_app_duration_seconds",
		"Application run latency by app (cache hits and decomposition resolution excluded).",
		"app", col.Apps())

	p.family("strongdecomp_inflight_requests", "HTTP requests currently being served.", "gauge")
	p.sample("strongdecomp_inflight_requests", "", float64(col.InFlight()))

	rt := obs.ReadRuntime()
	p.family("strongdecomp_goroutines", "Live goroutines.", "gauge")
	p.sample("strongdecomp_goroutines", "", float64(rt.Goroutines))
	p.family("strongdecomp_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge")
	p.sample("strongdecomp_heap_alloc_bytes", "", float64(rt.HeapAllocBytes))
	p.family("strongdecomp_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge")
	p.sample("strongdecomp_heap_sys_bytes", "", float64(rt.HeapSysBytes))
	p.family("strongdecomp_gc_cycles_total", "Completed GC cycles.", "counter")
	p.sample("strongdecomp_gc_cycles_total", "", float64(rt.GCCycles))
	p.family("strongdecomp_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.sample("strongdecomp_gc_pause_seconds_total", "", rt.GCPauseTotal.Seconds())
}

// writeHistogramVec renders one labeled histogram family in the
// exposition's cumulative form: _bucket samples with le edges from the
// shared obs bucket layout (everything above the top edge folds into
// +Inf), then _sum in seconds and _count.
func writeHistogramVec(p promWriter, name, help, label string, vec *obs.HistogramVec) {
	snaps := vec.Snapshots()
	if len(snaps) == 0 {
		return
	}
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bounds := obs.BucketBounds()

	p.family(name, help, "histogram")
	for _, k := range keys {
		snap := snaps[k]
		kv := promLabel(label, k)
		cum := snap.CumulativeBuckets()
		for i, b := range bounds {
			le := strconv.FormatFloat(b, 'g', -1, 64)
			p.sample(name+"_bucket", kv+","+promLabel("le", le), float64(cum[i]))
		}
		p.sample(name+"_bucket", kv+","+promLabel("le", "+Inf"), float64(snap.Count))
		p.sample(name+"_sum", kv, snap.Sum.Seconds())
		p.sample(name+"_count", kv, float64(snap.Count))
	}
}

// writePrometheusAlgorithms renders the per-algorithm families with an
// algorithm label, deterministically ordered.
func writePrometheusAlgorithms(p promWriter, algos map[string]service.AlgoStats) {
	if len(algos) == 0 {
		return
	}
	names := make([]string, 0, len(algos))
	for name := range algos {
		names = append(names, name)
	}
	sort.Strings(names)

	emit := func(metric, help, typ string, value func(service.AlgoStats) float64) {
		p.family(metric, help, typ)
		for _, name := range names {
			p.sample(metric, promLabel("algorithm", name), value(algos[name]))
		}
	}
	emit("strongdecomp_algorithm_requests_total", "Requests per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.Requests) })
	emit("strongdecomp_algorithm_errors_total", "Failed requests per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.Errors) })
	emit("strongdecomp_algorithm_cache_hits_total", "Cache hits per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.CacheHits) })
	emit("strongdecomp_algorithm_cache_misses_total", "Cache misses per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.CacheMisses) })
	emit("strongdecomp_algorithm_dedup_shared_total", "In-flight shared answers per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.DedupShared) })
	emit("strongdecomp_algorithm_peer_hits_total", "Peer-cache answers per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.PeerHits) })
	emit("strongdecomp_algorithm_computes_total", "Completed backend computations per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.Computes) })
	emit("strongdecomp_algorithm_latency_seconds_total", "Total computation latency per algorithm.", "counter",
		func(a service.AlgoStats) float64 { return a.LatencyTotal.Seconds() })
	emit("strongdecomp_algorithm_latency_seconds_max", "Max single-computation latency per algorithm.", "gauge",
		func(a service.AlgoStats) float64 { return a.LatencyMax.Seconds() })
	emit("strongdecomp_algorithm_latency_seconds_mean", "Mean computation latency per algorithm.", "gauge",
		func(a service.AlgoStats) float64 { return a.LatencyMeanSeconds })
}

// writePrometheusApps renders the per-application families (POST
// /v2/apps/{app} serving counters) with an app label, deterministically
// ordered. Absent outside app-serving processes — the families only
// appear once an app request has been counted.
func writePrometheusApps(p promWriter, apps map[string]service.AlgoStats) {
	if len(apps) == 0 {
		return
	}
	names := make([]string, 0, len(apps))
	for name := range apps {
		names = append(names, name)
	}
	sort.Strings(names)

	emit := func(metric, help, typ string, value func(service.AlgoStats) float64) {
		p.family(metric, help, typ)
		for _, name := range names {
			p.sample(metric, promLabel("app", name), value(apps[name]))
		}
	}
	emit("strongdecomp_app_requests_total", "Requests per application.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.Requests) })
	emit("strongdecomp_app_errors_total", "Failed requests per application.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.Errors) })
	emit("strongdecomp_app_cache_hits_total", "App-cache hits per application (memory or disk tier).", "counter",
		func(a service.AlgoStats) float64 { return float64(a.CacheHits) })
	emit("strongdecomp_app_cache_misses_total", "App-cache misses per application.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.CacheMisses) })
	emit("strongdecomp_app_dedup_shared_total", "In-flight shared answers per application.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.DedupShared) })
	emit("strongdecomp_app_runs_total", "Completed application runs per application.", "counter",
		func(a service.AlgoStats) float64 { return float64(a.Computes) })
	emit("strongdecomp_app_latency_seconds_total", "Total application run latency per application.", "counter",
		func(a service.AlgoStats) float64 { return a.LatencyTotal.Seconds() })
}

// sortedKeys returns the map's keys in sorted order for deterministic
// exposition output.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
