// Command serve runs the decomposition service as an HTTP server: the
// algorithm registry behind a content-addressed result cache with
// in-flight request deduplication, per-algorithm metrics, and graceful
// shutdown on SIGINT/SIGTERM.
//
// Endpoints (see internal/service/httpapi):
//
//	GET    /healthz              liveness (plus cluster topology when sharded)
//	GET    /readyz               readiness; 503 while draining or below quorum
//	GET    /metrics              Prometheus text exposition; ?format=json for JSON
//	GET    /v1/algorithms        registered constructions
//	POST   /v1/graphs            upload a graph (?format=edgelist|metis|json|csr)
//	GET    /v1/graphs/{hash}     stored-graph metadata; ?format= downloads it
//	POST   /v1/decompose         {"graph": {...} | "hash": "...", "algo": "...", "seed": 1}
//	POST   /v1/carve             same, plus "eps"
//	POST   /v1/decompose/batch   {"requests": [...]} — one response per item, in order
//	POST   /v2/jobs              async submit (adds "kind", "timeout_ms"); 202 + job ID
//	GET    /v2/jobs/{id}         job state machine snapshot
//	DELETE /v2/jobs/{id}         cancel by ID
//	GET    /v2/jobs/{id}/result  result; ?stream=1 for NDJSON cluster streaming
//	POST   /v2/apps/{app}        run a served application (mis|coloring|diameter|spanner)
//	                             over a stored graph's cached decomposition
//
// With -data-dir the service is persistent: uploaded graphs spill to
// binary CSR snapshots and computed results to JSON records under that
// directory, so a restarted server answers by-hash requests and repeated
// computations without re-upload or recomputation (see docs/API.md and
// the README "Persistence" section).
//
// With -cluster-peers and -shard-id the process joins a sharded serving
// tier (see internal/shard): a consistent-hash ring routes every graph
// to an owning shard, any node proxies the full API to the owner, and
// cache misses consult peers before recomputing. Without the flags the
// process is a single-node server, bit-identical to earlier releases.
//
// Usage:
//
//	serve -addr :8080 [-algo chang-ghaffari] [-workers 8] [-cache 256] [-timeout 30s]
//	      [-job-queue 64] [-job-workers 2] [-job-ttl 15m] [-data-dir /var/lib/strongdecomp]
//	      [-app-cache 256] [-strict]
//	      [-debug-addr localhost:6060] [-log-level info]
//	      [-shard-id a -cluster-peers a=http://h1:8080,b=http://h2:8080,c=http://h3:8080
//	       -cluster-secret token]
//
// Logs are structured JSON (log/slog) on stderr; every request gets a
// trace (header X-Strongdecomp-Trace) whose spans — route, cache tier,
// proxy hop, engine stages, compute — share one trace ID across shards.
// -debug-addr serves net/http/pprof on a separate, private listener.
// See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"strongdecomp"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/service/httpapi"
	"strongdecomp/internal/shard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		algo    = flag.String("algo", "chang-ghaffari", "default algorithm for requests that name none: "+strings.Join(strongdecomp.Algorithms(), "|"))
		workers = flag.Int("workers", 0, "engine worker-pool size (0: GOMAXPROCS)")
		cache   = flag.Int("cache", 256, "result-cache entries (negative: disable caching)")
		graphs  = flag.Int("graphs", 128, "uploaded-graph store entries")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request computation timeout (0: none)")
		grace   = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")

		jobQueue   = flag.Int("job-queue", 64, "async job queue bound (full queue answers 429)")
		jobWorkers = flag.Int("job-workers", 2, "concurrent async jobs")
		jobTTL     = flag.Duration("job-ttl", 15*time.Minute, "retention of finished async job results; also bounds the shutdown job drain")

		dataDir = flag.String("data-dir", "", "persist graphs (binary CSR snapshots) and results under this directory; a restart serves them without re-upload or recomputation")

		appCache = flag.Int("app-cache", 256, "served-application result-cache entries (negative: disable app caching)")
		strict   = flag.Bool("strict", false, "verify every application result before serving it; failed disk records are quarantined and recomputed")

		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate listener (empty: disabled); keep it off the public address")
		logLevel  = flag.String("log-level", "info", "minimum slog level for the JSON log stream: debug|info|warn|error (spans emit at info)")

		shardID       = flag.String("shard-id", "", "this node's ID in -cluster-peers; enables sharded serving")
		clusterPeers  = flag.String("cluster-peers", "", "cluster membership as id=url,id=url,... (must include -shard-id)")
		vnodes        = flag.Int("cluster-vnodes", 0, "virtual nodes per shard on the hash ring (0: default)")
		replicas      = flag.Int("cluster-replicas", 1, "ring successors receiving result/graph replicas (0: no replication)")
		clusterSecret = flag.String("cluster-secret", "", "shared token peers must present on cluster-internal requests (same value on every shard; empty: membership-only peer auth)")
	)
	flag.Parse()

	if _, err := strongdecomp.Lookup(*algo); err != nil {
		return err
	}
	if (*shardID == "") != (*clusterPeers == "") {
		return fmt.Errorf("-shard-id and -cluster-peers must be set together")
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if *shardID != "" {
		logger = logger.With(slog.String("shard", *shardID))
	}
	collector := obs.NewCollector(logger)

	// The service needs the cluster's hooks at construction and the
	// cluster's handler needs the service, so the hooks late-bind
	// through this pointer: nil until the cluster exists, which is
	// before the listener starts accepting traffic.
	var cluster *shard.Cluster
	hooks := strongdecomp.ServiceClusterHooks{}
	if *shardID != "" {
		hooks = strongdecomp.ServiceClusterHooks{
			PeerLookup: func(ctx context.Context, graphHash, paramsKey string, n int) (*strongdecomp.ServiceResult, bool) {
				if cluster == nil {
					return nil, false
				}
				return cluster.PeerLookup(ctx, graphHash, paramsKey, n)
			},
			OnResultComputed: func(graphHash, paramsKey string, res *strongdecomp.ServiceResult) {
				if cluster != nil {
					cluster.ReplicateResult(graphHash, paramsKey, res)
				}
			},
			OnGraphStored: func(graphHash string, g *strongdecomp.Graph) {
				if cluster != nil {
					cluster.ReplicateGraph(graphHash, g)
				}
			},
		}
	}

	svc, err := strongdecomp.NewService(
		strongdecomp.WithServiceAlgorithm(*algo),
		strongdecomp.WithServiceWorkers(*workers),
		strongdecomp.WithServiceCacheSize(*cache),
		strongdecomp.WithServiceGraphStore(*graphs),
		strongdecomp.WithServiceTimeout(*timeout),
		strongdecomp.WithServiceJobQueue(*jobQueue),
		strongdecomp.WithServiceJobWorkers(*jobWorkers),
		strongdecomp.WithServiceJobTTL(*jobTTL),
		strongdecomp.WithServiceDataDir(*dataDir),
		strongdecomp.WithServiceClusterHooks(hooks),
		strongdecomp.WithServiceAppCacheSize(*appCache),
		strongdecomp.WithServiceStrictApps(*strict),
	)
	if err != nil {
		return err
	}
	defer svc.Close()

	// draining gates single-node readiness; clustered readiness also
	// folds in quorum via cluster.Ready.
	var draining atomic.Bool
	readiness := func() error {
		if draining.Load() {
			return fmt.Errorf("draining")
		}
		return nil
	}
	apiOpts := []httpapi.Option{httpapi.WithReadiness(readiness), httpapi.WithObs(collector)}

	var handler http.Handler
	if *shardID != "" {
		members, err := shard.ParseMembers(*clusterPeers)
		if err != nil {
			return err
		}
		cluster, err = shard.NewCluster(shard.Config{
			SelfID:   *shardID,
			Members:  members,
			VNodes:   *vnodes,
			Replicas: *replicas,
			Secret:   *clusterSecret,
		})
		if err != nil {
			return err
		}
		defer cluster.Close()
		apiOpts = []httpapi.Option{
			httpapi.WithReadiness(func() error {
				if err := readiness(); err != nil {
					return err
				}
				return cluster.Ready()
			}),
			httpapi.WithHealthDetail(cluster.HealthDetail),
			httpapi.WithClusterStats(cluster.Stats),
			httpapi.WithObs(collector),
			httpapi.WithServedBy(*shardID),
		}
		// The collector middleware wraps the proxy too, so forwarded
		// requests are traced and measured at the coordinator edge; the
		// inner httpapi wrap passes through (the middleware is idempotent
		// by context), so nothing double-counts.
		handler = collector.Middleware(cluster.Handler(svc, httpapi.New(svc, apiOpts...)))
	} else {
		handler = httpapi.New(svc, apiOpts...)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = newDebugServer(*debugAddr)
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", slog.String("addr", *debugAddr), slog.Any("error", err))
			}
		}()
		logger.Info("pprof listening", slog.String("addr", *debugAddr))
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *shardID != "" {
		logger.Info("listening",
			slog.String("addr", *addr),
			slog.Int("peers", len(strings.Split(*clusterPeers, ","))),
			slog.String("default_algorithm", *algo),
		)
	} else {
		logger.Info("listening",
			slog.String("addr", *addr),
			slog.String("default_algorithm", *algo),
			slog.Int("cache", *cache),
			slog.Duration("timeout", *timeout),
		)
	}

	select {
	case err := <-errc:
		return err // immediate listen failure; never ErrServerClosed here
	case <-ctx.Done():
	}

	// Shutdown ordering: flip readiness first so load balancers stop
	// routing here, stop accepting and drain in-flight HTTP within the
	// grace period, then let queued/running async jobs finish (bounded
	// by the job TTL — the longest a client would wait for one anyway)
	// before the deferred svc.Close tears down the engine under them.
	logger.Info("signal received, draining", slog.Duration("grace", *grace))
	draining.Store(true)
	if cluster != nil {
		cluster.SetDraining(true)
	}
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if debugSrv != nil {
		dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
		_ = debugSrv.Shutdown(dctx) // debug listener; nothing to drain
		dcancel()
	}
	jctx, jcancel := context.WithTimeout(context.Background(), *jobTTL)
	if err := svc.DrainJobs(jctx); err != nil {
		logger.Warn("job drain incomplete", slog.Any("error", err))
	}
	jcancel()
	logger.Info("drained, bye")
	return nil
}

// newDebugServer builds the pprof-only server for -debug-addr. The
// handlers are mounted on a private mux — never the default mux, never
// the public listener — so profiling stays opt-in and off the serving
// address.
func newDebugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
}
