// Package httpapi exposes a service.Service as an HTTP JSON API — the
// bytes-on-the-wire layer of the decomposition server:
//
//	GET    /healthz              liveness probe (cluster mode adds topology)
//	GET    /readyz               readiness probe; 503 while draining or
//	                             when a cluster shard loses peer quorum
//	GET    /metrics              Prometheus text exposition (default) or
//	                             the JSON snapshot with ?format=json
//	GET    /v1/algorithms        the algorithm registry (name, model, bounds)
//	POST   /v1/graphs            upload a graph, get its content hash
//	GET    /v1/graphs/{hash}     stored-graph metadata, or the graph
//	                             itself with ?format=edgelist|metis|json|csr
//	POST   /v1/decompose         decompose a graph (inline or by hash)
//	POST   /v1/carve             ball-carve a graph (inline or by hash)
//	POST   /v1/decompose/batch   execute many compute requests in one call,
//	                             answers aligned to request order
//	                             (fanned out across shards in cluster mode)
//	POST   /v2/jobs              submit an async job; 202 with a job ID
//	                             (in cluster mode "<shard>.<id>", so any
//	                             node routes the ID to the shard holding
//	                             the job; see JobShard)
//	GET    /v2/jobs/{id}         job status (state machine: queued →
//	                             running → done|failed|canceled)
//	DELETE /v2/jobs/{id}         cancel by ID (idempotent)
//	GET    /v2/jobs/{id}/result  fetch a done job's result; ?stream=1
//	                             streams clusters as NDJSON
//	POST   /v2/apps/{app}        run an application (mis | coloring |
//	                             diameter | spanner) over the graph's
//	                             cached decomposition
//
// Graph uploads accept any graphio format (?format=edgelist|metis|json|csr,
// default json); compute requests carry the graph inline as a JSON graph
// document or reference a previously uploaded content hash. When the
// service runs with a data directory, by-hash lookups and repeated
// computations are served across restarts from the disk tier. Every request
// resolves into one canonical registry.Params inside the service, so v1
// and v2, sync and async, all share defaults, validation, and cache
// identity. Typed service errors map onto status codes: invalid requests
// → 400, unknown hashes/jobs → 404, a full job queue → 429 (backpressure),
// canceled or timed-out runs → 504.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/service"
)

// ServedByHeader names the shard that actually served a response. The
// local handler stamps it (see WithServedBy) and the cluster proxy relays
// it untouched, so a client of any coordinator sees the true placement.
const ServedByHeader = "X-Strongdecomp-Served-By"

// maxBodyBytes bounds request bodies (inline graphs included).
const maxBodyBytes = 128 << 20

// MaxBatchRequests bounds one /v1/decompose/batch body. Exported so the
// cluster proxy enforces the identical cap before fanning a batch out
// across shards.
const MaxBatchRequests = 1024

// batchConcurrency bounds how many batch items execute at once on top of
// each runner's own internal parallelism.
const batchConcurrency = 8

// Option customizes the handler New returns. The zero set of options
// serves exactly the single-process API; cluster mode (internal/shard)
// uses options to surface topology in health, readiness, and metrics.
type Option func(*api)

// WithReadiness installs the readiness probe behind GET /readyz: a nil
// error means ready (200), a non-nil error is reported with a 503 — the
// signal a load balancer needs to stop routing to a draining or
// quorum-less shard. Liveness (GET /healthz) is unaffected.
func WithReadiness(fn func() error) Option {
	return func(a *api) { a.ready = fn }
}

// WithHealthDetail merges extra fields (e.g. shard ID, ring membership,
// peer liveness) into the GET /healthz response body. Without it the body
// stays exactly {"status":"ok"}.
func WithHealthDetail(fn func() map[string]any) Option {
	return func(a *api) { a.healthDetail = fn }
}

// WithClusterStats contributes per-shard counters (proxying, fan-out,
// peer cache, replication) to GET /metrics: as strongdecomp_shard_*
// series in the Prometheus exposition and under "shard" in the JSON body.
func WithClusterStats(fn func() map[string]int64) Option {
	return func(a *api) { a.clusterStats = fn }
}

// WithObs attaches the process observability collector: New wraps the
// handler in the collector's tracing middleware (idempotently — a request
// already traced by an outer wrap passes through), and GET /metrics gains
// the per-endpoint and per-algorithm latency histogram families plus the
// in-flight and Go runtime gauges.
func WithObs(c *obs.Collector) Option {
	return func(a *api) { a.obs = c }
}

// WithServedBy stamps id into the ServedByHeader of every response this
// handler serves. In a cluster each shard passes its own ID, and the
// proxy relays the header verbatim on forwards, so the value a client
// sees always names the shard that did the work, not the coordinator.
// The same id prefixes every job ID the handler mints (see JobShard).
func WithServedBy(id string) Option {
	return func(a *api) { a.servedBy = id }
}

// New returns the HTTP handler serving s.
func New(s *service.Service, opts ...Option) http.Handler {
	api := &api{svc: s}
	for _, opt := range opts {
		opt(api)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", api.healthz)
	mux.HandleFunc("GET /readyz", api.readyz)
	mux.HandleFunc("GET /metrics", api.metrics)
	mux.HandleFunc("GET /v1/algorithms", api.algorithms)
	mux.HandleFunc("POST /v1/graphs", api.putGraph)
	mux.HandleFunc("GET /v1/graphs/{hash}", api.getGraph)
	mux.HandleFunc("POST /v1/decompose", api.compute(registry.KindDecompose))
	mux.HandleFunc("POST /v1/carve", api.compute(registry.KindCarve))
	mux.HandleFunc("POST /v1/decompose/batch", api.batch)
	mux.HandleFunc("POST /v2/jobs", api.submitJob)
	mux.HandleFunc("GET /v2/jobs/{id}", api.getJob)
	mux.HandleFunc("DELETE /v2/jobs/{id}", api.cancelJob)
	mux.HandleFunc("GET /v2/jobs/{id}/result", api.jobResult)
	mux.HandleFunc("POST /v2/apps/{app}", api.runApp)
	var h http.Handler = mux
	if api.servedBy != "" {
		h = servedByHandler(api.servedBy, h)
	}
	if api.obs != nil {
		h = api.obs.Middleware(h)
	}
	return h
}

// servedByHandler stamps the serving shard ID before delegating, so the
// header reaches the wire ahead of the first WriteHeader call.
func servedByHandler(id string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ServedByHeader, id)
		next.ServeHTTP(w, r)
	})
}

type api struct {
	svc          *service.Service
	ready        func() error
	healthDetail func() map[string]any
	clusterStats func() map[string]int64
	obs          *obs.Collector
	servedBy     string
}

// healthz is the liveness probe: answering at all is the signal. The body
// stays {"status":"ok"} unless WithHealthDetail adds topology fields.
func (a *api) healthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok"}
	if a.healthDetail != nil {
		for k, v := range a.healthDetail() {
			if k != "status" {
				body[k] = v
			}
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// readyz is the readiness probe, split from liveness: a live process may
// still be unready (draining before shutdown, or a cluster shard that has
// lost its peer quorum) and must be drained from load balancing without
// being killed.
func (a *api) readyz(w http.ResponseWriter, r *http.Request) {
	if a.ready != nil {
		if err := a.ready(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// metrics serves the service counters: Prometheus text exposition format
// by default, the JSON snapshot with ?format=json (the pre-Prometheus
// body, kept for compatibility).
func (a *api) metrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prometheus":
		var shard map[string]int64
		if a.clusterStats != nil {
			shard = a.clusterStats()
		}
		w.Header().Set("Content-Type", prometheusContentType)
		w.WriteHeader(http.StatusOK)
		writePrometheus(w, a.svc.Stats(), shard, a.obs)
	case "json":
		body := metricsJSON{Stats: a.svc.Stats()}
		if a.clusterStats != nil {
			body.Shard = a.clusterStats()
		}
		writeJSON(w, http.StatusOK, body)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown metrics format %q (want prometheus or json)", format))
	}
}

// metricsJSON is the ?format=json metrics body: the service Stats
// (embedded, so single-process bodies are byte-identical to the legacy
// /metrics) plus the per-shard counter block in cluster mode.
type metricsJSON struct {
	service.Stats
	// Shard carries the cluster counters; omitted outside cluster mode.
	Shard map[string]int64 `json:"shard,omitempty"`
}

// algorithmInfo is the wire form of a registry entry.
type algorithmInfo struct {
	Name      string `json:"name"`
	Display   string `json:"display"`
	Model     string `json:"model"`
	Diameter  string `json:"diameter"`
	Reference string `json:"reference,omitempty"`
	Default   bool   `json:"default,omitempty"`
}

func (a *api) algorithms(w http.ResponseWriter, r *http.Request) {
	infos := registry.Infos()
	out := make([]algorithmInfo, len(infos))
	for i, info := range infos {
		out[i] = algorithmInfo{
			Name:      info.Name,
			Display:   info.DisplayName(),
			Model:     info.Model,
			Diameter:  info.Diameter,
			Reference: info.Reference,
			Default:   info.Name == a.svc.DefaultAlgorithm(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// graphResponse answers an upload: the content hash is the handle for
// subsequent by-hash compute requests.
type graphResponse struct {
	Hash string `json:"hash"`
	N    int    `json:"n"`
	M    int    `json:"m"`
}

// uploadKey is the context key WithParsedUpload stores a parsedUpload
// under.
type uploadKey struct{}

// parsedUpload is an upload body's graph and its content hash.
type parsedUpload struct {
	g    *graph.Graph
	hash string
}

// WithParsedUpload returns a copy of ctx carrying g, the graph a POST
// /v1/graphs body parses to, and hash, its content hash. The handler
// serving that upload under the returned context stores g under hash
// instead of parsing and hashing the body again; the cluster proxy, which
// parses an upload to learn where to route it, hands its parse to the
// local handler this way. The caller vouches that g is the body's graph
// and hash is graphio.Hash(g).
func WithParsedUpload(ctx context.Context, g *graph.Graph, hash string) context.Context {
	return context.WithValue(ctx, uploadKey{}, parsedUpload{g: g, hash: hash})
}

func (a *api) putGraph(w http.ResponseWriter, r *http.Request) {
	if up, ok := r.Context().Value(uploadKey{}).(parsedUpload); ok {
		a.svc.PutHashedGraph(up.hash, up.g)
		writeJSON(w, http.StatusOK, graphResponse{Hash: up.hash, N: up.g.N(), M: up.g.M()})
		return
	}
	format := graphio.FormatJSON
	if name := r.URL.Query().Get("format"); name != "" {
		var err error
		if format, err = graphio.ParseFormat(name); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	g, err := graphio.Read(http.MaxBytesReader(w, r.Body, maxBodyBytes), format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash := a.svc.PutGraph(g)
	writeJSON(w, http.StatusOK, graphResponse{Hash: hash, N: g.N(), M: g.M()})
}

// getGraph is GET /v1/graphs/{hash}: metadata for a stored graph (memory
// or disk tier), or — with ?format=edgelist|metis|json|csr — the graph
// itself serialized in that format. 404 for hashes the store does not
// hold.
func (a *api) getGraph(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	g, ok := a.svc.GetGraph(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", service.ErrUnknownGraph, hash))
		return
	}
	name := r.URL.Query().Get("format")
	if name == "" {
		writeJSON(w, http.StatusOK, graphResponse{Hash: hash, N: g.N(), M: g.M()})
		return
	}
	format, err := graphio.ParseFormat(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	switch format {
	case graphio.FormatJSON:
		w.Header().Set("Content-Type", "application/json")
	case graphio.FormatCSR:
		w.Header().Set("Content-Type", "application/octet-stream")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	_ = graphio.Write(w, g, format) // status line is out; a broken pipe is the client's problem
}

// computeRequest is the body of /v1/decompose, /v1/carve, and (with Kind)
// /v2/jobs: an inline graph document or a content hash, plus run
// parameters.
type computeRequest struct {
	// Kind selects the operation for /v2/jobs ("carve" or "decompose",
	// default "decompose"); the v1 endpoints encode it in the path.
	Kind  string            `json:"kind,omitempty"`
	Graph *graphio.Document `json:"graph,omitempty"`
	Hash  string            `json:"hash,omitempty"`
	Algo  string            `json:"algo,omitempty"`
	Eps   float64           `json:"eps,omitempty"`
	Seed  int64             `json:"seed,omitempty"`
	// TimeoutMS, when positive, bounds this caller's wait for the result
	// (the computation itself stays bounded by the service timeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// request resolves the wire body into the operation kind and the
// service request every compute handler runs: the kind the endpoint's
// path fixes (v1), else the body's, else a decomposition. An unknown
// kind fails service validation like any other malformed parameter.
func (b *computeRequest) request(pathKind registry.Kind) (registry.Kind, *service.Request, error) {
	kind := pathKind
	if kind == "" {
		kind = registry.Kind(b.Kind)
	}
	if kind == "" {
		kind = registry.KindDecompose
	}
	req := &service.Request{
		Hash: b.Hash, Algo: b.Algo, Eps: b.Eps, Seed: b.Seed,
		Timeout: time.Duration(b.TimeoutMS) * time.Millisecond,
	}
	if b.Graph != nil {
		g, err := graphio.FromDocument(b.Graph)
		if err != nil {
			return "", nil, err
		}
		req.Graph = g
	}
	return kind, req, nil
}

// readCompute decodes and resolves a single compute body (see request),
// answering 400 itself when either step fails.
func readCompute(w http.ResponseWriter, r *http.Request, pathKind registry.Kind) (kind registry.Kind, req *service.Request, ok bool) {
	var body computeRequest
	err := decodeBody(w, r, &body)
	if err == nil {
		kind, req, err = body.request(pathKind)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
	}
	return kind, req, err == nil
}

// decodeBody parses a bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// computeResponse is a served result. Assign/Color follow the library
// conventions (Assign[v] == -1 marks a carved-away node).
type computeResponse struct {
	GraphHash string  `json:"graph_hash"`
	Kind      string  `json:"kind"`
	Algo      string  `json:"algo"`
	Seed      int64   `json:"seed"`
	Eps       float64 `json:"eps,omitempty"`
	K         int     `json:"k"`
	Colors    int     `json:"colors,omitempty"`
	Assign    []int   `json:"assign"`
	Color     []int   `json:"color,omitempty"`
	Rounds    int64   `json:"rounds"`
	Cached    bool    `json:"cached"`
	Shared    bool    `json:"shared"`
	// Peer reports the result was fetched from a cluster peer's cache
	// rather than recomputed; omitted (never false-y noise) outside
	// cluster mode, so single-process responses are unchanged.
	Peer      bool    `json:"peer,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// compute serves the v1 compute endpoints, whose path fixes the kind.
func (a *api) compute(pathKind registry.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		kind, req, ok := readCompute(w, r, pathKind)
		if !ok {
			return
		}
		res, err := a.svc.Run(r.Context(), kind, req)
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resultResponse(res))
	}
}

// resultResponse renders a served result in the wire form shared by the
// v1 compute endpoints and the v2 job result endpoint.
func resultResponse(res *service.Result) computeResponse {
	out := computeResponse{
		GraphHash: res.GraphHash, Kind: res.Kind, Algo: res.Algo,
		Seed: res.Seed, Eps: res.Eps,
		Rounds: res.Rounds, Cached: res.CacheHit, Shared: res.Shared,
		Peer:      res.PeerHit,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	if res.Carving != nil {
		out.K, out.Assign = res.Carving.K, res.Carving.Assign
	}
	if res.Decomposition != nil {
		out.K, out.Colors = res.Decomposition.K, res.Decomposition.Colors
		out.Assign, out.Color = res.Decomposition.Assign, res.Decomposition.Color
	}
	return out
}

// appResponse is a served application answer (POST /v2/apps/{app}).
// Payload fields are app-specific; schedule_cost, rounds, and the cache
// provenance flags are present on every app.
type appResponse struct {
	GraphHash string `json:"graph_hash"`
	App       string `json:"app"`
	Algo      string `json:"algo"`
	Seed      int64  `json:"seed"`

	InMIS       []bool `json:"in_mis,omitempty"`
	MISSize     int    `json:"mis_size,omitempty"`
	ColorOf     []int  `json:"color_of,omitempty"`
	PaletteSize int    `json:"palette_size,omitempty"`
	// Diameter is a pointer so the diameter app's legitimate 0 answer
	// (single node) still serializes while other apps omit the field.
	Diameter     *int     `json:"diameter,omitempty"`
	SpannerEdges [][2]int `json:"spanner_edges,omitempty"`
	TreeEdges    int      `json:"tree_edges,omitempty"`
	CrossEdges   int      `json:"cross_edges,omitempty"`

	// ScheduleCost is the C·D template cost of the underlying
	// decomposition on this graph — the paper's bound on what any
	// color-by-color application pays.
	ScheduleCost int   `json:"schedule_cost"`
	Rounds       int64 `json:"rounds"`
	Cached       bool  `json:"cached"`
	Shared       bool  `json:"shared,omitempty"`
	// DecompositionCached reports the underlying decomposition was served
	// from a cache tier instead of freshly computed.
	DecompositionCached bool    `json:"decomposition_cached"`
	Verified            bool    `json:"verified,omitempty"`
	ElapsedMS           float64 `json:"elapsed_ms"`
}

// appWire renders a served app answer.
func appWire(res *service.AppResult) appResponse {
	out := appResponse{
		GraphHash: res.GraphHash, App: res.App, Algo: res.Algo, Seed: res.Seed,
		InMIS: res.InMIS, ColorOf: res.ColorOf, PaletteSize: res.PaletteSize,
		SpannerEdges: res.SpannerEdges, TreeEdges: res.TreeEdges, CrossEdges: res.CrossEdges,
		ScheduleCost: res.ScheduleCost, Rounds: res.Rounds,
		Cached: res.CacheHit, Shared: res.Shared,
		DecompositionCached: res.DecompCacheHit, Verified: res.Verified,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	for _, in := range res.InMIS {
		if in {
			out.MISSize++
		}
	}
	if res.App == service.AppDiameter {
		d := res.Diameter
		out.Diameter = &d
	}
	return out
}

// runApp is POST /v2/apps/{app}: run an application over the graph's
// cached decomposition. The body is the compute-request shape (inline
// graph or hash, algo, seed, timeout); eps and kind do not apply.
func (a *api) runApp(w http.ResponseWriter, r *http.Request) {
	_, req, ok := readCompute(w, r, "")
	if !ok {
		return
	}
	res, err := a.svc.RunApp(r.Context(), r.PathValue("app"), req)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, appWire(res))
}

// batchRequest is the body of POST /v1/decompose/batch: an ordered list
// of compute requests (each the same shape as a /v2/jobs body, so "kind"
// selects carve vs decompose per item).
type batchRequest struct {
	Requests []computeRequest `json:"requests"`
}

// batchItemResponse is one slot of a batch response: exactly one of
// Result and Error is set, at the index of the request it answers.
type batchItemResponse struct {
	Result *computeResponse `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// batchResponse answers POST /v1/decompose/batch with results aligned to
// the request order.
type batchResponse struct {
	Results []batchItemResponse `json:"results"`
}

// batch is POST /v1/decompose/batch: execute every request of the body —
// concurrently, bounded by batchConcurrency — and answer all of them in
// one response, per-item errors included. In cluster mode the coordinator
// splits a batch by owning shard and merges the sub-batches, so this
// handler also serves each shard's local share of a fanned-out batch.
func (a *api) batch(w http.ResponseWriter, r *http.Request) {
	var body batchRequest
	if err := decodeBody(w, r, &body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body.Requests) > MaxBatchRequests {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch carries %d requests, limit %d", len(body.Requests), MaxBatchRequests))
		return
	}
	out := batchResponse{Results: make([]batchItemResponse, len(body.Requests))}
	sem := make(chan struct{}, batchConcurrency)
	var wg sync.WaitGroup
	for i := range body.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out.Results[i] = a.batchItem(r, &body.Requests[i])
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

// batchItem executes one slot of a batch through the same service path as
// the single-request endpoints.
func (a *api) batchItem(r *http.Request, item *computeRequest) batchItemResponse {
	kind, req, err := item.request("")
	if err != nil {
		return batchItemResponse{Error: err.Error()}
	}
	res, err := a.svc.Run(r.Context(), kind, req)
	if err != nil {
		return batchItemResponse{Error: err.Error()}
	}
	wire := resultResponse(res)
	return batchItemResponse{Result: &wire}
}

// jobResponse is the wire form of a job snapshot.
type jobResponse struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Algo        string `json:"algo"`
	State       string `json:"state"`
	Error       string `json:"error,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// ResultURL is set once the job is done.
	ResultURL string `json:"result_url,omitempty"`
}

// JobShard splits a wire job ID into the shard that minted it and the
// service's own ID for the job. A handler built WithServedBy(shard)
// mints "<shard>.<id>"; without it the wire ID is the bare service ID
// and shard is empty. Service IDs are hex, so the last dot separates.
func JobShard(wireID string) (shard, id string) {
	if i := strings.LastIndexByte(wireID, '.'); i >= 0 {
		return wireID[:i], wireID[i+1:]
	}
	return "", wireID
}

// job applies op (a job lookup or cancel) to the service job the {id}
// path value names. An ID this handler did not mint — another shard's,
// or one missing this shard's prefix — is an unknown job here, never a
// lookup under the stripped ID.
func (a *api) job(r *http.Request, op func(id string) (*service.Job, error)) (*service.Job, error) {
	wireID := r.PathValue("id")
	if shard, id := JobShard(wireID); shard == a.servedBy {
		return op(id)
	}
	return nil, fmt.Errorf("%w: %q", service.ErrUnknownJob, wireID)
}

// jobWire renders a job snapshot under its wire ID.
func (a *api) jobWire(j *service.Job) jobResponse {
	id := j.ID
	if a.servedBy != "" {
		id = a.servedBy + "." + id
	}
	out := jobResponse{
		ID: id, Kind: j.Kind, Algo: j.Algo,
		State: string(j.State), Error: j.Error,
		SubmittedAt: j.SubmittedAt.Format(time.RFC3339Nano),
	}
	if !j.StartedAt.IsZero() {
		out.StartedAt = j.StartedAt.Format(time.RFC3339Nano)
	}
	if !j.FinishedAt.IsZero() {
		out.FinishedAt = j.FinishedAt.Format(time.RFC3339Nano)
	}
	if j.State == service.JobDone {
		out.ResultURL = "/v2/jobs/" + id + "/result"
	}
	return out
}

// submitJob is POST /v2/jobs: enqueue an async run, answer 202 with the
// job ID immediately (or 429 when the bounded queue pushes back).
func (a *api) submitJob(w http.ResponseWriter, r *http.Request) {
	kind, req, ok := readCompute(w, r, "")
	if !ok {
		return
	}
	id, err := a.svc.Submit(kind, req)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	j, err := a.svc.Job(id)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, a.jobWire(j))
}

// getJob is GET /v2/jobs/{id}: the job state machine snapshot.
func (a *api) getJob(w http.ResponseWriter, r *http.Request) {
	j, err := a.job(r, a.svc.Job)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, a.jobWire(j))
}

// cancelJob is DELETE /v2/jobs/{id}: cancel-by-ID, idempotent — canceling
// a terminal job just echoes its state.
func (a *api) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := a.job(r, a.svc.CancelJob)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, a.jobWire(j))
}

// jobResult is GET /v2/jobs/{id}/result: the full result of a done job —
// as one JSON document by default, or as an NDJSON cluster stream with
// ?stream=1 (the path that never materializes a second full copy of a
// huge assignment).
func (a *api) jobResult(w http.ResponseWriter, r *http.Request) {
	j, err := a.job(r, a.svc.Job)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	if j.State != service.JobDone || j.Result == nil {
		status := http.StatusConflict
		if j.State == service.JobFailed || j.State == service.JobCanceled {
			status = http.StatusGone
		}
		writeError(w, status, fmt.Errorf("%w: job %s is %s", service.ErrJobNotDone, r.PathValue("id"), j.State))
		return
	}
	res := j.Result
	// Only a truthy stream value selects NDJSON: ?stream=0 / stream=false
	// must keep answering the plain JSON document.
	if stream, _ := strconv.ParseBool(r.URL.Query().Get("stream")); !stream {
		writeJSON(w, http.StatusOK, resultResponse(res))
		return
	}

	hdr := graphio.StreamHeader{
		Kind: res.Kind, Algo: res.Algo, GraphHash: res.GraphHash,
		Eps: res.Eps, Seed: res.Seed, Rounds: res.Rounds,
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var streamErr error
	switch {
	case res.Carving != nil:
		hdr.N, hdr.K = len(res.Carving.Assign), res.Carving.K
		streamErr = graphio.WriteClusterStream(w, hdr, res.Carving.Clusters())
	case res.Decomposition != nil:
		hdr.N, hdr.K = len(res.Decomposition.Assign), res.Decomposition.K
		hdr.Colors = res.Decomposition.Colors
		streamErr = graphio.WriteClusterStream(w, hdr, res.Decomposition.Clusters())
	}
	_ = streamErr // the status line is out; a broken client connection is not recoverable
}

// statusOf maps the serving layer's typed errors onto HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, service.ErrUnknownGraph),
		errors.Is(err, service.ErrUnknownJob),
		errors.Is(err, service.ErrUnknownApp):
		return http.StatusNotFound
	case errors.Is(err, service.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrInvalidRequest),
		errors.Is(err, registry.ErrInvalidParams),
		errors.Is(err, registry.ErrUnknownAlgorithm):
		return http.StatusBadRequest
	case errors.Is(err, registry.ErrCanceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
