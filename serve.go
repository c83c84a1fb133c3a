package strongdecomp

// This file is the serving facade: graph I/O re-exports (load, save,
// content hash) and NewService, which wires the request-shaped caching
// layer in internal/service to Engine-backed execution. cmd/serve mounts
// the result behind the HTTP API in internal/service/httpapi.

import (
	"time"

	"strongdecomp/internal/graphio"
	"strongdecomp/internal/service"
)

// Serving-layer re-exports. A Service answers decomposition requests
// through a content-addressed LRU result cache keyed by
// (HashGraph(g), algorithm, kind, eps, seed), deduplicates concurrent
// identical requests in flight, and runs every computation on one shared
// Engine.
type (
	// Service is the caching, deduplicating request layer over the Engine.
	Service = service.Service
	// ServiceRequest is one decomposition/carving request (inline graph or
	// content hash).
	ServiceRequest = service.Request
	// ServiceResult is a served result with cache/dedup provenance flags.
	ServiceResult = service.Result
	// ServiceStats is the Service observability snapshot.
	ServiceStats = service.Stats
	// ServiceJob is a snapshot of an async job (see Service.Submit):
	// queued → running → done|failed|canceled, with TTL'd retention.
	ServiceJob = service.Job
	// ServiceJobState is the lifecycle state of an async job.
	ServiceJobState = service.JobState
	// ServicePersistStats is the disk-tier block of a ServiceStats
	// snapshot (present only with WithServiceDataDir).
	ServicePersistStats = service.PersistStats
	// ServiceClusterHooks connects a Service to a sharded serving tier
	// (see internal/shard): a peer-cache lookup consulted on cache
	// misses, and replication callbacks fired on fresh computations and
	// graph uploads. The zero value keeps the service cluster-agnostic.
	ServiceClusterHooks = service.ClusterHooks
	// ServiceAppResult is a served application result (MIS, coloring,
	// approximate diameter, or spanner) with cache/dedup provenance flags
	// (see Service.RunApp).
	ServiceAppResult = service.AppResult
)

// Typed serving errors.
var (
	// ErrInvalidRequest marks malformed service requests.
	ErrInvalidRequest = service.ErrInvalidRequest
	// ErrUnknownGraph marks by-hash requests for graphs not in the store.
	ErrUnknownGraph = service.ErrUnknownGraph
	// ErrQueueFull is the async-submission backpressure signal.
	ErrQueueFull = service.ErrQueueFull
	// ErrUnknownJob marks job IDs that never existed or expired.
	ErrUnknownJob = service.ErrUnknownJob
	// ErrUnknownApp marks requests naming an application the serving
	// layer does not provide (see Service.Apps for the roster).
	ErrUnknownApp = service.ErrUnknownApp
)

// LoadGraph reads a graph file, detecting the format (edge list, METIS, or
// JSON document) from the extension.
func LoadGraph(path string) (*Graph, error) { return graphio.Load(path) }

// SaveGraph writes g to path in the format detected from the extension.
func SaveGraph(path string, g *Graph) error { return graphio.Save(path, g) }

// HashGraph returns the stable content hash of g — the cache identity used
// by the serving layer. Two graphs hash identically iff they have the same
// node count and edge set.
func HashGraph(g *Graph) string { return graphio.Hash(g) }

type serviceConfig struct {
	workers     int
	cacheSize   int
	graphStore  int
	graphBudget int
	timeout     time.Duration
	algo        string
	jobQueue    int
	jobWorkers  int
	jobTTL      time.Duration
	dataDir     string
	cluster     ServiceClusterHooks
	appCache    int
	strictApps  bool
}

// ServiceOption configures NewService.
type ServiceOption func(*serviceConfig)

// WithServiceWorkers sets the worker-pool size of the backing Engine
// (default GOMAXPROCS).
func WithServiceWorkers(n int) ServiceOption {
	return func(c *serviceConfig) { c.workers = n }
}

// WithServiceCacheSize bounds the result cache (default 256 entries; a
// negative size disables caching).
func WithServiceCacheSize(n int) ServiceOption {
	return func(c *serviceConfig) { c.cacheSize = n }
}

// WithServiceGraphStore bounds the uploaded-graph store (default 128
// graphs).
func WithServiceGraphStore(n int) ServiceOption {
	return func(c *serviceConfig) { c.graphStore = n }
}

// WithServiceTimeout bounds each request's computation via context
// deadline; timed-out requests fail with errors matching ErrCanceled.
func WithServiceTimeout(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.timeout = d }
}

// WithServiceAlgorithm sets the construction used by requests that name
// none (default the paper's "chang-ghaffari").
func WithServiceAlgorithm(name string) ServiceOption {
	return func(c *serviceConfig) { c.algo = name }
}

// WithServiceJobQueue bounds the async job queue (default 64 jobs; a
// negative size disables the job subsystem — submissions fail fast).
func WithServiceJobQueue(n int) ServiceOption {
	return func(c *serviceConfig) { c.jobQueue = n }
}

// WithServiceJobWorkers sets how many jobs execute concurrently (default
// 2; each job still parallelizes internally over the Engine's pool).
func WithServiceJobWorkers(n int) ServiceOption {
	return func(c *serviceConfig) { c.jobWorkers = n }
}

// WithServiceJobTTL sets how long finished async jobs are retained for
// result retrieval before being purged (default 15 minutes).
func WithServiceJobTTL(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.jobTTL = d }
}

// WithServiceGraphStoreBudget bounds the total resident bytes of the
// uploaded-graph store, weighted by each graph's real CSR footprint
// (default 256 MiB).
func WithServiceGraphStoreBudget(bytes int) ServiceOption {
	return func(c *serviceConfig) { c.graphBudget = bytes }
}

// WithServiceDataDir makes the service persistent: uploaded graphs spill
// to binary CSR snapshots and computed results to JSON records under dir,
// both consulted on memory misses. A service restarted on the same
// directory serves previously uploaded graphs (by content hash) and
// previously computed results (by cache identity) without re-upload or
// recomputation; corrupt files are quarantined, never served. NewService
// fails if the directory layout cannot be created.
func WithServiceDataDir(dir string) ServiceOption {
	return func(c *serviceConfig) { c.dataDir = dir }
}

// WithServiceAppCacheSize bounds the served-application result cache
// (default 256 entries; a negative size disables app caching — every
// app request recomputes, though the decomposition it consumes still
// rides the decomposition cache).
func WithServiceAppCacheSize(n int) ServiceOption {
	return func(c *serviceConfig) { c.appCache = n }
}

// WithServiceStrictApps makes the service verify every application
// result before serving it: freshly computed results that fail their
// verifier are refused (the request errors), and persisted app records
// that load from disk but fail verification are quarantined and
// recomputed. Off by default — the verifiers cost a full pass over the
// graph per request.
func WithServiceStrictApps(on bool) ServiceOption {
	return func(c *serviceConfig) { c.strictApps = on }
}

// WithServiceClusterHooks connects the service to a sharded serving
// tier: hooks.PeerLookup is consulted on result-cache misses before
// computing, and the replication callbacks fire after fresh
// computations and graph uploads. cmd/serve sets this when started with
// -cluster-peers; a single-process service leaves it zero and behaves
// identically to earlier releases.
func WithServiceClusterHooks(hooks ServiceClusterHooks) ServiceOption {
	return func(c *serviceConfig) { c.cluster = hooks }
}

// NewService builds the serving layer: requests are answered from the
// content-addressed cache when possible, concurrent identical requests
// share one computation, and misses run on one Engine shared by every
// algorithm — the same path as Run, so the service and the library answer
// the same Params identically. The engine's counters surface in
// ServiceStats.Runner and the HTTP /metrics endpoint.
//
// NewService fails only when WithServiceDataDir names a directory whose
// layout cannot be created; a memory-only service never errors.
func NewService(opts ...ServiceOption) (*Service, error) {
	var c serviceConfig
	for _, opt := range opts {
		opt(&c)
	}
	return service.New(service.Config{
		Workers:          c.workers,
		DefaultAlgorithm: c.algo,
		CacheSize:        c.cacheSize,
		GraphStoreSize:   c.graphStore,
		GraphStoreBudget: c.graphBudget,
		Timeout:          c.timeout,
		JobQueue:         c.jobQueue,
		JobWorkers:       c.jobWorkers,
		JobTTL:           c.jobTTL,
		DataDir:          c.dataDir,
		Cluster:          c.cluster,
		AppCacheSize:     c.appCache,
		StrictApps:       c.strictApps,
	})
}
