// Package service is the request-shaped layer over the decomposition
// engine: a Service accepts requests and answers them through a
// content-addressed result cache, deduplicating concurrent identical
// computations in flight (singleflight) and propagating per-request
// timeouts through context cancellation. Requests may also be submitted
// asynchronously (Submit) onto a bounded job queue with cancel-by-ID and
// TTL'd result retention — see jobs.go.
//
// Every request resolves into one canonical registry.Params: defaults via
// Params.Normalized, validation via Params.Validate, and the cache
// identity of a request is (graphio.Hash(g), Params.Key()) — the
// canonical byte encoding of the normalized Params. Every registered
// construction is deterministic given its seed, so a cached result is
// bit-identical to a recomputed one and the hot path of a repeated
// decomposition drops from O(BFS) to O(1).
//
// The package depends only on the internal substrate (graph, cluster,
// registry, rounds, graphio); the execution backend is injected as
// Config.Run, a function of the canonical Params. The facade's NewService
// wires in one strongdecomp.Engine's Run; without one the service falls
// back to registry.Run.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/registry"
)

// Typed errors of the serving layer. HTTP handlers map these to status
// codes with errors.Is.
var (
	// ErrInvalidRequest marks malformed requests (no graph, bad eps, both
	// inline graph and hash, ...).
	ErrInvalidRequest = errors.New("service: invalid request")
	// ErrUnknownGraph is returned for a by-hash request whose hash is not
	// (or no longer) in the graph store.
	ErrUnknownGraph = errors.New("service: unknown graph hash")
)

// Config parameterizes New. The zero value is serviceable: registry.Run as
// the backend, the paper's construction as default algorithm, and default
// cache sizes.
type Config struct {
	// Run executes one normalized Params on a graph: the execution
	// backend for every algorithm. Nil means registry.Run (no component
	// split, no engine parallelism).
	Run func(ctx context.Context, g *graph.Graph, p registry.Params) (*registry.Outcome, error)
	// RunnerStats, when non-nil, contributes backend counters (e.g. engine
	// pool stats) to Stats().Runner.
	RunnerStats func() map[string]int64
	// DefaultAlgorithm is used when a request names none; default
	// "chang-ghaffari".
	DefaultAlgorithm string
	// CacheSize bounds the result cache entries (default 256; negative
	// disables caching).
	CacheSize int
	// AppCacheSize bounds the application-result cache entries (default
	// 256; negative disables app-result caching). See apps.go.
	AppCacheSize int
	// StrictApps makes every served application answer pass its verifier
	// (VerifyMIS, VerifyColoring, shape checks for diameter and spanner)
	// before it leaves the service: freshly computed answers that fail
	// verification are errors, and persisted app records that fail are
	// quarantined and recomputed instead of served.
	StrictApps bool
	// GraphStoreSize bounds the uploaded-graph store entries (default 128;
	// negative disables the store, forcing inline graphs).
	GraphStoreSize int
	// GraphStoreBudget bounds the store's total size in bytes of resident
	// CSR adjacency, measured by graph.MemoryFootprint (default 1<<28,
	// 256 MiB); graphs that alone exceed the budget are not retained.
	GraphStoreBudget int
	// Timeout bounds each request's computation; 0 means no service-side
	// limit (the caller's context still applies). A Request.Timeout
	// additionally bounds that caller's own wait.
	Timeout time.Duration
	// JobQueue bounds the async job queue (default 64; negative disables
	// the job subsystem — Submit fails with ErrQueueFull).
	JobQueue int
	// JobWorkers is the number of goroutines draining the job queue
	// (default 2). Each job still fans out over the backend's own pool.
	JobWorkers int
	// JobTTL is how long a finished job's result is retained for
	// retrieval before it is purged (default 15 minutes).
	JobTTL time.Duration
	// DataDir, when non-empty, makes the service persistent: graphs spill
	// to binary CSR snapshots and results to JSON records under this
	// directory, and both tiers are consulted on memory misses — so a
	// restarted service serves previously uploaded graphs and cached
	// results without re-upload or recomputation. See persist.go.
	DataDir string
	// Cluster connects this service to a sharded serving tier. All hooks
	// are optional; the zero value keeps the service single-process with
	// behavior identical to pre-cluster builds.
	Cluster ClusterHooks
}

// ClusterHooks are the integration points between one Service process and
// a sharded cluster (see internal/shard). The service stays agnostic of
// ring topology and wire protocol: it only knows that a result it does not
// hold may live on a peer (PeerLookup extends the miss path) and that what
// it computes or stores may be worth replicating (the On* callbacks fire
// on fresh local work, never on cache hits or admitted peer data, so
// replication cannot echo around the ring).
type ClusterHooks struct {
	// PeerLookup is consulted on a full local miss (memory and disk),
	// before computing: given the graph hash, the canonical Params.Key
	// bytes, and the resolved graph's node count it returns a result held
	// by a peer, or ok == false to fall through to computation. It runs
	// inside the singleflight, so concurrent identical requests share one
	// peer fetch.
	PeerLookup func(ctx context.Context, graphHash string, paramsKey string, n int) (*Result, bool)
	// OnResultComputed fires after a freshly computed (not cached, not
	// peer-served) result has been admitted to the local tiers.
	OnResultComputed func(graphHash string, paramsKey string, res *Result)
	// OnGraphStored fires after PutGraph or PutHashedGraph stores a
	// graph, held already or not, with a function returning the graph's
	// CSR snapshot: the bytes the disk tier spilled when this put spilled
	// them, encoded on the first call otherwise. The hook calls it, if at
	// all, before it returns, and must not modify the bytes. It does not
	// fire for graphs admitted via AdmitGraph, which is how replicated
	// copies arrive — again to keep replication one-directional.
	OnGraphStored func(graphHash string, snapshot func() []byte)
}

// Service answers decomposition requests through a cache, an in-flight
// deduplicator, and an injected execution backend. It is safe for
// concurrent use — one Service is meant to serve a whole process.
type Service struct {
	cfg     Config
	graphs  *graphStore
	persist *persistStore // nil when Config.DataDir is empty
	results *tier[*Result]
	answers *tier[*AppResult]
	stats   *statsTable
	jobs    *jobManager
	start   time.Time
}

// New builds a Service from cfg. It fails only when Config.DataDir is set
// and the data-directory layout cannot be created.
func New(cfg Config) (*Service, error) {
	if cfg.Run == nil {
		cfg.Run = registry.Run
	}
	if cfg.DefaultAlgorithm == "" {
		cfg.DefaultAlgorithm = registry.DefaultAlgorithm
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.AppCacheSize == 0 {
		cfg.AppCacheSize = 256
	}
	if cfg.GraphStoreSize == 0 {
		cfg.GraphStoreSize = 128
	}
	if cfg.GraphStoreBudget == 0 {
		cfg.GraphStoreBudget = 1 << 28
	}
	if cfg.JobQueue == 0 {
		cfg.JobQueue = 64
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	s := &Service{
		cfg:    cfg,
		graphs: newGraphStore(cfg.GraphStoreSize, cfg.GraphStoreBudget),
		stats:  newStatsTable(),
		start:  time.Now(),
	}
	if cfg.DataDir != "" {
		p, err := newPersistStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.persist = p
	}
	var err error
	if s.results, err = newTier(resultCodec, cfg.CacheSize, cfg.Timeout, s.persist, cfg.DataDir); err != nil {
		return nil, err
	}
	if s.answers, err = newTier(appCodec(cfg.StrictApps), cfg.AppCacheSize, cfg.Timeout, s.persist, cfg.DataDir); err != nil {
		return nil, err
	}
	s.jobs = newJobManager(s, cfg.JobQueue, cfg.JobWorkers, cfg.JobTTL)
	return s, nil
}

// Close stops the job subsystem: queued jobs are marked canceled, running
// jobs have their contexts canceled, and the worker goroutines are joined.
// Synchronous requests are unaffected. Close is idempotent.
func (s *Service) Close() { s.jobs.close() }

// Request is one decomposition or carving request. Exactly one of Graph
// (inline) and Hash (previously uploaded, see PutGraph) must be set.
type Request struct {
	Graph *graph.Graph
	Hash  string
	// Algo is a registry name; empty means the service default.
	Algo string
	// Eps is the carving boundary parameter (carve requests only).
	Eps float64
	// Seed drives randomized constructions and is part of the cache key.
	Seed int64
	// Timeout, when positive, bounds this caller's wait for the result.
	// The shared computation itself stays bounded by Config.Timeout, so
	// one caller's aggressive deadline can never kill a flight other
	// callers are waiting on. Negative timeouts are rejected with
	// ErrInvalidRequest.
	Timeout time.Duration
}

// params resolves a request into the canonical registry.Params — the
// single source of defaults, validation, and cache identity. Malformed
// requests (NaN/Inf or out-of-range eps, negative timeout, unknown kind)
// fail with errors matching ErrInvalidRequest.
func (s *Service) params(kind registry.Kind, req *Request) (registry.Params, error) {
	if req == nil {
		return registry.Params{}, fmt.Errorf("%w: nil request", ErrInvalidRequest)
	}
	if req.Timeout < 0 {
		return registry.Params{}, fmt.Errorf("%w: negative timeout %v", ErrInvalidRequest, req.Timeout)
	}
	p := registry.Params{Algorithm: req.Algo, Kind: kind, Eps: req.Eps, Seed: req.Seed, Meter: true}
	if p.Algorithm == "" {
		p.Algorithm = s.cfg.DefaultAlgorithm
	}
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		return registry.Params{}, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	return p, nil
}

// Result is a served decomposition or carving. Payload pointers (Carving,
// Decomposition) may be shared with the cache and other callers — treat
// them as immutable.
type Result struct {
	// GraphHash is the content hash the result is cached under.
	GraphHash string
	// Kind is "carve" or "decompose".
	Kind string
	Algo string
	Eps  float64
	Seed int64

	Carving       *cluster.Carving
	Decomposition *cluster.Decomposition

	// Rounds is the simulated CONGEST cost of the underlying run.
	Rounds int64
	// Elapsed is the wall-clock compute time of the underlying run (not
	// of this request, which may have been served from cache).
	Elapsed time.Duration
	// CacheHit reports that the result came from the cache.
	CacheHit bool
	// Shared reports that the result was computed once by a concurrent
	// identical request and shared through the in-flight deduplicator.
	Shared bool
	// PeerHit reports that the result was fetched from a cluster peer's
	// cache instead of being recomputed (cluster mode only).
	PeerHit bool
	// Stages is the engine's per-phase timing breakdown of the underlying
	// computation. It is populated only on instrumented fresh computes
	// (see registry.Outcome.Stages) and is process-local: cached,
	// persisted, and peer-served results carry none, because they did not
	// run the phases.
	Stages []registry.StageTiming
}

// coversN reports whether the result's assignment covers exactly n
// nodes. This is the revalidation serve paths apply to memory-cache
// hits: a record admitted from a peer before its graph was locally
// resolvable (AdmitResult with an unknown node count) was only checked
// for internal consistency, and every other range check in decodeResult
// is relative to the assignment length — so once the graph is known,
// matching lengths re-establishes the full validation.
func (r *Result) coversN(n int) bool {
	switch {
	case r.Carving != nil:
		return len(r.Carving.Assign) == n
	case r.Decomposition != nil:
		return len(r.Decomposition.Assign) == n
	}
	return false
}

// Decompose serves a full network decomposition. (Eps is not a
// decomposition parameter; Params.Normalized zeroes it so the cache key
// stays canonical.)
func (s *Service) Decompose(ctx context.Context, req *Request) (*Result, error) {
	return s.Run(ctx, registry.KindDecompose, req)
}

// Carve serves a ball carving with boundary parameter req.Eps.
func (s *Service) Carve(ctx context.Context, req *Request) (*Result, error) {
	return s.Run(ctx, registry.KindCarve, req)
}

// PutGraph stores g in the graph store and returns its content hash, the
// identity later by-hash requests use. With a data directory configured,
// the graph is also spilled to a binary CSR snapshot so it survives both
// LRU eviction and process restarts.
func (s *Service) PutGraph(g *graph.Graph) string {
	hash := graphio.Hash(g)
	s.PutHashedGraph(hash, g)
	return hash
}

// PutHashedGraph is PutGraph for a caller that already holds g's content
// hash: hash must be graphio.Hash(g), and is not recomputed. The cluster
// proxy, which hashes an upload to route it, stores it this way. With a
// data directory, a graph not yet spilled is encoded once: those bytes
// are spilled, the graph store keeps the mapped spill file instead of g,
// and the cluster's OnGraphStored hook gets the same bytes. A graph the
// memory tier holds and the disk tier has spilled is only refreshed, and
// the hook encodes it only if it asks for the bytes.
func (s *Service) PutHashedGraph(hash string, g *graph.Graph) {
	held, ok := s.graphs.get(hash)
	if ok {
		g = held
	}
	var snap []byte
	snapshot := func() []byte {
		if snap == nil {
			snap = graphio.EncodeCSR(g)
		}
		return snap
	}
	switch {
	case s.persist != nil && !(ok && s.persist.hasGraph(hash)):
		// Not held, or held from the heap after a failed spill: spill now.
		s.storeGraph(hash, g, snapshot())
	case !ok:
		s.graphs.put(hash, g)
	}
	if hook := s.cfg.Cluster.OnGraphStored; hook != nil {
		hook(hash, snapshot)
	}
}

// AdmitGraph stores the graph whose CSR snapshot is snap under its content
// hash in the local tiers, like PutHashedGraph but without firing the
// cluster's OnGraphStored hook: the admission path for graph replicas
// arriving from peers, which must not be re-replicated onward. snap is
// checked in place — size, checksum, graph invariants, and its content
// hash against hash — and a snapshot failing any check is rejected with
// ErrInvalidRequest and stores nothing. With a data directory, the bytes
// are spilled unchanged and the store keeps the mapped file; without one
// it keeps a graph over snap, which the caller must leave unmodified.
func (s *Service) AdmitGraph(hash string, snap []byte) error {
	g, err := graphio.DecodeCSR(snap)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if got := graphio.Hash(g); got != hash {
		return fmt.Errorf("%w: snapshot hash %s does not match %s", ErrInvalidRequest, got, hash)
	}
	s.storeGraph(hash, g, snap)
	return nil
}

// storeGraph admits a graph and its snapshot bytes to the local tiers:
// with a data directory, the memory tier holds the mapping of the spilled
// snapshot, and g only when the spill or the mapping fails.
func (s *Service) storeGraph(hash string, g *graph.Graph, snap []byte) {
	if s.persist != nil {
		if mapped := s.persist.storeGraph(hash, snap); mapped != nil {
			g = mapped
		}
	}
	s.graphs.put(hash, g)
}

// GetGraph returns the stored graph for a content hash, falling through
// to the disk tier (mmap snapshot load) on a memory miss.
func (s *Service) GetGraph(hash string) (*graph.Graph, bool) {
	if g, ok := s.graphs.get(hash); ok {
		return g, true
	}
	if s.persist != nil {
		if g, ok := s.persist.loadGraph(hash); ok {
			s.graphs.put(hash, g)
			return g, true
		}
	}
	return nil, false
}

// DefaultAlgorithm returns the algorithm used when requests name none.
func (s *Service) DefaultAlgorithm() string { return s.cfg.DefaultAlgorithm }

// CachedResult looks a result up in the local tiers only — memory LRU,
// then (when the graph is locally resolvable, so the record can be
// validated) the disk tier. It never computes and never asks a peer: this
// is the lookup a cluster peer performs on another shard's behalf, and it
// must not recurse into the network. paramsKey is the canonical
// Params.Key bytes.
func (s *Service) CachedResult(graphHash string, paramsKey string) (*Result, bool) {
	g, _ := s.GetGraph(graphHash)
	res, _, ok := s.results.cached(cacheKey{hash: graphHash, params: paramsKey}, g)
	return res, ok
}

// AdmitResult decodes a peer-encoded result record (EncodeResultRecord)
// and admits it to the local tiers. When the graph is locally resolvable
// the record is validated against its node count and admitted to both
// memory and disk; otherwise only the record's internal consistency is
// checked, and the record is admitted to the memory tier only — serve
// paths re-check it against the graph once one arrives (Result.coversN),
// and the disk tier holds nothing but fully validated records.
// Undecodable or inconsistent records are rejected with
// ErrInvalidRequest.
func (s *Service) AdmitResult(graphHash string, paramsKey string, data []byte) error {
	if !validHash(graphHash) {
		return fmt.Errorf("%w: malformed graph hash %q", ErrInvalidRequest, graphHash)
	}
	n := -1
	if g, ok := s.GetGraph(graphHash); ok {
		n = g.N()
	}
	res, ok := DecodeResultRecord(data, graphHash, paramsKey, n)
	if !ok {
		return fmt.Errorf("%w: undecodable or inconsistent result record", ErrInvalidRequest)
	}
	s.results.admit(cacheKey{hash: graphHash, params: paramsKey}, res, n >= 0)
	return nil
}

// Run serves one request of the given kind (empty means decompose)
// through the shared request path: canonicalize to Params → resolve
// graph → cache → singleflight → backend. Decompose and Carve are Run
// with a fixed kind.
func (s *Service) Run(ctx context.Context, kind registry.Kind, req *Request) (*Result, error) {
	p, err := s.params(kind, req)
	if err != nil {
		return nil, err
	}
	// Validate the algorithm before creating its stats entry: the stats
	// table is keyed by caller-supplied strings and serialized into
	// /metrics, so unregistered names must never be admitted into it.
	if _, err := registry.Lookup(p.Algorithm); err != nil {
		return nil, err
	}
	st := s.stats.algo(p.Algorithm)
	st.requests.Add(1)

	g, hash, err := s.resolveGraph(req)
	if err != nil {
		st.errors.Add(1)
		return nil, err
	}

	// Full local miss: in a cluster the owning peer may hold this exact
	// result — a network hop instead of a recompute — and a peer hit is
	// admitted to the local tiers like a fresh compute.
	key := cacheKey{hash: hash, params: p.Key()}
	algo, kindAttr := slog.String("algo", p.Algorithm), slog.String("kind", string(kind))
	res, how, err := s.results.lookup(ctx, st, key, g, req.Timeout, []slog.Attr{algo, kindAttr},
		func(runCtx context.Context) (*Result, func() *Result, error) {
			if pl := s.cfg.Cluster.PeerLookup; pl != nil {
				peerStart := time.Now()
				if out, ok := pl(runCtx, hash, key.params, g.N()); ok && out != nil {
					st.peerHits.Add(1)
					obs.Span(runCtx, "cache", peerStart, slog.String("tier", "peer"), algo, kindAttr)
					return out, func() *Result {
						served := *out
						served.PeerHit = true
						return &served
					}, nil
				}
			}
			out, err := s.compute(runCtx, g, hash, p)
			if err != nil {
				return nil, nil, err
			}
			st.recordLatency(out.Elapsed)
			obs.ObserveAlgorithm(runCtx, p.Algorithm, out.Elapsed)
			for _, stage := range out.Stages {
				obs.SpanDuration(runCtx, stage.Name, stage.Elapsed,
					slog.String("scope", "engine"), algo)
			}
			obs.SpanDuration(runCtx, "compute", out.Elapsed, slog.String("tier", "compute"), algo, kindAttr)
			return out, func() *Result {
				if h := s.cfg.Cluster.OnResultComputed; h != nil {
					h(hash, key.params, out)
				}
				return out
			}, nil
		})
	if err != nil {
		return nil, err
	}
	switch how {
	case servedCache:
		out := *res
		out.CacheHit = true
		out.Stages = nil // the phases ran for the original compute, not this request
		return &out, nil
	case servedShared:
		out := *res
		out.Shared = true
		return &out, nil
	}
	return res, nil
}

// compute runs the canonical Params on the backend and packages the
// result.
func (s *Service) compute(ctx context.Context, g *graph.Graph, hash string, p registry.Params) (*Result, error) {
	start := time.Now()
	o, err := s.cfg.Run(ctx, g, p)
	// A stored graph may be a mapped snapshot, unmapped once g is
	// unreachable: keep g reachable while the run may still hold views
	// of its arrays, even if the store evicts it meanwhile.
	runtime.KeepAlive(g)
	if err != nil {
		return nil, err
	}
	return &Result{
		GraphHash:     hash,
		Kind:          string(p.Kind),
		Algo:          p.Algorithm,
		Eps:           p.Eps,
		Seed:          p.Seed,
		Carving:       o.Carving,
		Decomposition: o.Decomposition,
		Rounds:        o.Rounds,
		Elapsed:       time.Since(start),
		Stages:        o.Stages,
	}, nil
}

// resolveGraph turns a request into a (graph, content hash) pair. Inline
// graphs are hashed and retained in the store, so a caller can switch to
// by-hash requests without a separate upload.
func (s *Service) resolveGraph(req *Request) (*graph.Graph, string, error) {
	switch {
	case req.Graph != nil && req.Hash != "":
		return nil, "", fmt.Errorf("%w: provide an inline graph or a hash, not both", ErrInvalidRequest)
	case req.Graph != nil:
		return req.Graph, s.PutGraph(req.Graph), nil
	case req.Hash != "":
		g, ok := s.GetGraph(req.Hash) // memory tier, then disk tier
		if !ok {
			return nil, "", fmt.Errorf("%w: %q", ErrUnknownGraph, req.Hash)
		}
		return g, req.Hash, nil
	default:
		return nil, "", fmt.Errorf("%w: request carries no graph and no hash", ErrInvalidRequest)
	}
}
