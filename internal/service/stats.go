package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// algoStats is the live per-algorithm counter block; mutated with atomics
// on the request path, snapshotted by Stats.
type algoStats struct {
	requests     atomic.Int64
	errors       atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	dedupShared  atomic.Int64
	peerHits     atomic.Int64
	computes     atomic.Int64
	latencyNS    atomic.Int64
	latencyMaxNS atomic.Int64
}

// recordLatency folds one completed computation into the block.
func (a *algoStats) recordLatency(d time.Duration) {
	a.computes.Add(1)
	a.latencyNS.Add(int64(d))
	for {
		m := a.latencyMaxNS.Load()
		if int64(d) <= m || a.latencyMaxNS.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// statsTable lazily allocates one counter block per algorithm name, and
// one per served application name (the two namespaces are disjoint: app
// names are a fixed enum, algorithm names come from the registry).
type statsTable struct {
	mu    sync.Mutex
	algos map[string]*algoStats
	apps  map[string]*algoStats
}

func newStatsTable() *statsTable {
	return &statsTable{
		algos: make(map[string]*algoStats),
		apps:  make(map[string]*algoStats),
	}
}

func (t *statsTable) algo(name string) *algoStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.algos[name]
	if !ok {
		st = &algoStats{}
		t.algos[name] = st
	}
	return st
}

// app returns the counter block of a served application. Application
// blocks reuse the algoStats layout: an app "compute" is one run of the
// application itself (the underlying decomposition's compute is counted
// by its own algorithm block), and PeerHits stays zero — app answers are
// never fetched from peers, only their decompositions are.
func (t *statsTable) app(name string) *algoStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.apps[name]
	if !ok {
		st = &algoStats{}
		t.apps[name] = st
	}
	return st
}

// AlgoStats is a point-in-time snapshot of one algorithm's serving
// counters.
type AlgoStats struct {
	// Requests counts every request naming this algorithm, however it was
	// answered.
	Requests int64 `json:"requests"`
	// Errors counts failed requests (validation, unknown graph, canceled
	// or failed computations).
	Errors int64 `json:"errors"`
	// CacheHits / CacheMisses split the requests that reached the result
	// cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// DedupShared counts requests answered by joining another request's
	// in-flight computation instead of starting their own.
	DedupShared int64 `json:"dedup_shared"`
	// PeerHits counts misses answered from a cluster peer's cache instead
	// of a recompute (always 0 outside cluster mode).
	PeerHits int64 `json:"peer_hits"`
	// Computes counts completed engine computations (the misses that ran
	// to success).
	Computes int64 `json:"computes"`
	// Latency aggregates over completed computations.
	LatencyTotal time.Duration `json:"latency_total_ns"`
	LatencyMax   time.Duration `json:"latency_max_ns"`
	LatencyMean  time.Duration `json:"latency_mean_ns"`
	// LatencyMeanSeconds is the mean computed in float seconds — the form
	// the Prometheus export consumes. The integer LatencyMean above
	// truncates toward zero at nanosecond granularity (total/computes in
	// integer division) and survives for JSON compatibility only.
	LatencyMeanSeconds float64 `json:"latency_mean_seconds"`
}

// Stats is a Service-wide snapshot: totals, cache occupancy, per-algorithm
// blocks, and the engine's counters.
type Stats struct {
	Uptime        time.Duration        `json:"uptime_ns"`
	Requests      int64                `json:"requests"`
	Errors        int64                `json:"errors"`
	CacheHits     int64                `json:"cache_hits"`
	CacheMisses   int64                `json:"cache_misses"`
	DedupShared   int64                `json:"dedup_shared"`
	PeerHits      int64                `json:"peer_hits"`
	CachedResults int                  `json:"cached_results"`
	StoredGraphs  int                  `json:"stored_graphs"`
	Jobs          JobStats             `json:"jobs"`
	Algorithms    map[string]AlgoStats `json:"algorithms"`
	// Apps holds the per-application serving counters (POST
	// /v2/apps/{app}). App requests are counted here, not in the top-level
	// totals — the decompositions they resolve already count under their
	// algorithm — so adding an app tier never perturbs existing dashboards.
	Apps map[string]AlgoStats `json:"apps,omitempty"`
	// Runner holds the counters of the service's engine (see
	// engine.Stats.Counters); it is always present.
	Runner map[string]int64 `json:"runner"`
	// Persist is the disk-tier block; nil when the service runs without a
	// data directory.
	Persist *PersistStats `json:"persist,omitempty"`
}

// JobStats is the async-job block of a Stats snapshot.
type JobStats struct {
	// Submitted counts accepted Submit calls over the service lifetime.
	Submitted int64 `json:"submitted"`
	// Completed / Failed / Canceled partition the settled jobs.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// Queued and Running are point-in-time gauges.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Retained counts jobs (any state) currently addressable by ID.
	Retained int `json:"retained"`
}

// snapshot copies one live counter block into its wire form. Counters
// are read atomically but individually, so cross-counter sums may be off
// by in-flight requests.
func (a *algoStats) snapshot() AlgoStats {
	out := AlgoStats{
		Requests:     a.requests.Load(),
		Errors:       a.errors.Load(),
		CacheHits:    a.cacheHits.Load(),
		CacheMisses:  a.cacheMisses.Load(),
		DedupShared:  a.dedupShared.Load(),
		PeerHits:     a.peerHits.Load(),
		Computes:     a.computes.Load(),
		LatencyTotal: time.Duration(a.latencyNS.Load()),
		LatencyMax:   time.Duration(a.latencyMaxNS.Load()),
	}
	if out.Computes > 0 {
		out.LatencyMean = out.LatencyTotal / time.Duration(out.Computes)
		out.LatencyMeanSeconds = out.LatencyTotal.Seconds() / float64(out.Computes)
	}
	return out
}

// Stats snapshots the service counters. Counters are read atomically but
// individually, so cross-counter sums may be off by in-flight requests.
func (s *Service) Stats() Stats {
	out := Stats{
		Uptime:        time.Since(s.start),
		CachedResults: s.results.lru.len(),
		StoredGraphs:  s.graphs.len(),
		Algorithms:    make(map[string]AlgoStats),
	}
	s.stats.mu.Lock()
	names := make([]string, 0, len(s.stats.algos))
	blocks := make([]*algoStats, 0, len(s.stats.algos))
	for name, st := range s.stats.algos {
		names = append(names, name)
		blocks = append(blocks, st)
	}
	appNames := make([]string, 0, len(s.stats.apps))
	appBlocks := make([]*algoStats, 0, len(s.stats.apps))
	for name, st := range s.stats.apps {
		appNames = append(appNames, name)
		appBlocks = append(appBlocks, st)
	}
	s.stats.mu.Unlock()
	for i, name := range names {
		a := blocks[i].snapshot()
		out.Algorithms[name] = a
		out.Requests += a.Requests
		out.Errors += a.Errors
		out.CacheHits += a.CacheHits
		out.CacheMisses += a.CacheMisses
		out.DedupShared += a.DedupShared
		out.PeerHits += a.PeerHits
	}
	if len(appNames) > 0 {
		out.Apps = make(map[string]AlgoStats, len(appNames))
		for i, name := range appNames {
			out.Apps[name] = appBlocks[i].snapshot()
		}
	}
	sub, comp, failed, canc, queued, running, retained := s.jobs.counts()
	out.Jobs = JobStats{
		Submitted: sub, Completed: comp, Failed: failed, Canceled: canc,
		Queued: queued, Running: running, Retained: retained,
	}
	out.Runner = s.engine.Stats().Counters()
	if p := s.persist; p != nil {
		out.Persist = &PersistStats{
			GraphSaves:     p.graphSaves.Load(),
			ResultSaves:    s.results.saves.Load(),
			AppSaves:       s.answers.saves.Load(),
			GraphDiskHits:  p.graphDiskHits.Load(),
			ResultDiskHits: s.results.diskHits.Load(),
			AppDiskHits:    s.answers.diskHits.Load(),
			Quarantined:    p.quarantined.Load(),
			SaveErrors:     p.saveErrors.Load(),
		}
	}
	return out
}
