package shard

// The coordinator proxy: every shard mounts this handler, so any node of
// the cluster accepts the full v1/v2 API and routes each request to the
// shard the ring says owns it — clients need one address, not a cluster
// map. Routing needs only the graph hash (taken from the body, or
// computed from an inline graph) or, for job polls, the shard named in
// the job ID. Requests are forwarded byte-identical, and forwarded
// requests carry an internal header that pins them to the receiving
// node, so two shards with momentarily different liveness views can
// never bounce a request between them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"strongdecomp/internal/graphio"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/service"
	"strongdecomp/internal/service/httpapi"
)

// internalHeader marks cluster-internal requests: the receiving shard
// serves them locally, never proxies onward. Its value must name a ring
// member — an unknown value is rejected, not routed (see authorizePeer).
const internalHeader = "X-Strongdecomp-Shard"

// secretHeader carries the shared cluster secret (Config.Secret) on
// cluster-internal requests when one is configured.
const secretHeader = "X-Strongdecomp-Cluster-Key"

// maxProxyBodyBytes bounds request bodies buffered for routing; it
// matches the API layer's own body cap.
const maxProxyBodyBytes = 128 << 20

// maxPeerBodyBytes bounds peer responses buffered by the cluster client
// (result records, sub-batch responses).
const maxPeerBodyBytes = 128 << 20

// proxy is the routing handler for one shard.
type proxy struct {
	c     *Cluster
	svc   *service.Service
	local http.Handler
	mux   *http.ServeMux
}

// Handler wraps the shard's local API handler with consistent-hash
// routing and mounts the cluster-internal endpoints. Requests whose
// owner is this shard (and every request carrying the internal header)
// are served by local unchanged.
func (c *Cluster) Handler(svc *service.Service, local http.Handler) http.Handler {
	p := &proxy{c: c, svc: svc, local: local}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", p.putGraph)
	mux.HandleFunc("GET /v1/graphs/{hash}", p.byHashPath)
	mux.HandleFunc("POST /v1/decompose", p.compute)
	mux.HandleFunc("POST /v1/carve", p.compute)
	mux.HandleFunc("POST /v1/decompose/batch", p.batch)
	mux.HandleFunc("POST /v2/apps/{app}", p.compute)
	mux.HandleFunc("POST /v2/jobs", p.compute)
	mux.HandleFunc("GET /v2/jobs/{id}", p.jobByID)
	mux.HandleFunc("DELETE /v2/jobs/{id}", p.jobByID)
	mux.HandleFunc("GET /v2/jobs/{id}/result", p.jobByID)
	mux.HandleFunc("GET /internal/cache/{hash}/{params}", p.requirePeer(p.internalCacheGet))
	mux.HandleFunc("PUT /internal/cache/{hash}/{params}", p.requirePeer(p.internalCachePut))
	mux.HandleFunc("PUT /internal/graphs/{hash}", p.requirePeer(p.internalGraphPut))
	mux.HandleFunc("GET /internal/ring", p.requirePeer(p.internalRing))
	mux.Handle("/", local) // healthz, readyz, metrics, algorithms: always local
	p.mux = mux
	return p
}

// ServeHTTP pins peer requests to this node before any routing runs: a
// request whose internal header passes peer authorization is served
// locally, once — never proxied onward, so two shards with momentarily
// different liveness views can never bounce it between them — and one
// whose header fails is rejected with 403 rather than routed, so a
// forged header cannot select its own placement. The /internal/
// endpoints authorize through requirePeer instead.
func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(internalHeader) == "" || strings.HasPrefix(r.URL.Path, "/internal/") {
		p.mux.ServeHTTP(w, r)
		return
	}
	if err := p.c.authorizePeer(r); err != nil {
		writeJSONError(w, http.StatusForbidden, err)
		return
	}
	p.local.ServeHTTP(w, r)
}

// requirePeer gates a cluster-internal endpoint on peer credentials:
// the shard header must name a ring member (and carry the shared secret
// when one is configured), so an ordinary client cannot inject cache
// records or graph replicas by calling /internal/ directly.
func (p *proxy) requirePeer(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := p.c.authorizePeer(r); err != nil {
			writeJSONError(w, http.StatusForbidden, err)
			return
		}
		h(w, r)
	}
}

// readBody buffers a routed request's body (routing has to inspect it,
// and retrying a forward needs to replay it).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBodyBytes))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
		return nil, false
	}
	return body, true
}

// serveLocal replays a buffered request into the local API handler.
func (p *proxy) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	p.c.servedLocal.Add(1)
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	p.local.ServeHTTP(w, r2)
}

// forward relays the request to member m verbatim (same method, path,
// query, body) with the internal header set. It returns an error only if
// no response was received — once m starts answering, its response is
// streamed through and the request is committed.
func (p *proxy) forward(w http.ResponseWriter, r *http.Request, body []byte, m Member) error {
	start := time.Now()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, m.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header = r.Header.Clone()
	p.c.setPeerAuth(req.Header)
	obs.InjectTrace(r.Context(), req.Header)
	resp, err := p.c.proxyClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	p.c.proxied.Add(1)
	copyResponse(w, resp)
	obs.Span(r.Context(), "proxy", start,
		slog.String("target", m.ID),
		slog.String("path", r.URL.Path),
		slog.Int("status", resp.StatusCode),
	)
	return nil
}

// copyResponse relays a peer response: headers, status, then the body
// with per-chunk flushing so NDJSON result streams flow through the
// proxy incrementally. Header keys the coordinator already wrote (the
// trace echo from its own middleware) win over the peer's copies —
// relaying those too would duplicate them on the wire — while headers
// only the peer set (its ServedByHeader stamp) pass through untouched.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		if len(w.Header().Values(k)) > 0 {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(&flushWriter{w: w}, resp.Body) // client hangups are the client's problem
}

// flushWriter flushes after every chunk so proxied streams stay streams.
type flushWriter struct{ w http.ResponseWriter }

func (f *flushWriter) Write(b []byte) (int, error) {
	n, err := f.w.Write(b)
	if flusher, ok := f.w.(http.Flusher); ok {
		flusher.Flush()
	}
	return n, err
}

// routeByKey serves a buffered request on the live owner of key: locally
// when this shard owns it, else by forwarding — retrying onto the next
// live owner when a forward dies in transit (the failure marks the peer
// down, so the ring re-resolves).
func (p *proxy) routeByKey(w http.ResponseWriter, r *http.Request, body []byte, key string) {
	for attempt := 0; attempt <= len(p.c.members); attempt++ {
		owner, ok := p.c.ring.OwnerAmong(key, p.c.alive)
		if !ok {
			p.c.proxyErrors.Add(1)
			writeJSONError(w, http.StatusBadGateway, fmt.Errorf("no live shard owns key %s", key))
			return
		}
		if owner.ID == p.c.self.ID {
			p.serveLocal(w, r, body)
			return
		}
		if err := p.forward(w, r, body, owner); err == nil {
			return
		}
		p.c.markDown(owner.ID)
		p.c.reroutes.Add(1)
	}
	p.c.proxyErrors.Add(1)
	writeJSONError(w, http.StatusBadGateway, fmt.Errorf("every candidate shard for key %s is unreachable", key))
}

// routeBody is the routing envelope of a compute/job body: enough to
// find the owning shard without touching the rest of the request.
type routeBody struct {
	Hash  string            `json:"hash"`
	Graph *graphio.Document `json:"graph"`
}

// routingKey extracts the graph hash a body routes by: the explicit
// hash, or the content hash of the inline graph.
func routingKey(body []byte) (string, error) {
	var rb routeBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return "", fmt.Errorf("decode request: %w", err)
	}
	if rb.Hash != "" {
		return rb.Hash, nil
	}
	if rb.Graph == nil {
		return "", fmt.Errorf("request carries no graph and no hash")
	}
	g, err := graphio.FromDocument(rb.Graph)
	if err != nil {
		return "", err
	}
	return graphio.Hash(g), nil
}

// compute routes the compute endpoints (/v1/decompose, /v1/carve,
// /v2/apps/{app}) and job submissions by graph hash.
func (p *proxy) compute(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key, err := routingKey(body)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	p.routeByKey(w, r, body, key)
}

// putGraph routes POST /v1/graphs: the body is parsed and hashed once to
// learn the content hash (the routing key). An owner elsewhere gets the
// body verbatim and parses it once itself; when this shard owns the graph,
// the parse and the hash ride to the local handler on the request context
// (httpapi.WithParsedUpload), so the body is not parsed or hashed again.
func (p *proxy) putGraph(w http.ResponseWriter, r *http.Request) {
	format := graphio.FormatJSON
	if name := r.URL.Query().Get("format"); name != "" {
		var err error
		if format, err = graphio.ParseFormat(name); err != nil {
			writeJSONError(w, http.StatusBadRequest, err)
			return
		}
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	g, err := graphio.Read(bytes.NewReader(body), format)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	hash := graphio.Hash(g)
	p.routeByKey(w, r.WithContext(httpapi.WithParsedUpload(r.Context(), g, hash)), body, hash)
}

// byHashPath routes GET /v1/graphs/{hash} by its path hash.
func (p *proxy) byHashPath(w http.ResponseWriter, r *http.Request) {
	// Serve locally when this shard holds the graph (replica or cached
	// copy) even if the ring points elsewhere — cheaper than a hop.
	hash := r.PathValue("hash")
	if _, ok := p.svc.GetGraph(hash); ok {
		p.c.servedLocal.Add(1)
		p.local.ServeHTTP(w, r)
		return
	}
	p.routeByKey(w, r, nil, hash)
}

// jobByID routes GET/DELETE /v2/jobs/{id} and the result endpoint by
// the shard its ID names (httpapi.JobShard): this shard's jobs and IDs
// no member minted are served locally (the local handler renders the
// canonical 404 for the latter); a peer's job is forwarded to that peer
// alone, and answers 502 when it is down — no other shard holds it.
func (p *proxy) jobByID(w http.ResponseWriter, r *http.Request) {
	shard, _ := httpapi.JobShard(r.PathValue("id"))
	owner, ok := p.c.ring.Member(shard)
	if !ok || owner.ID == p.c.self.ID {
		p.c.servedLocal.Add(1)
		p.local.ServeHTTP(w, r)
		return
	}
	if p.c.alive(owner.ID) {
		if err := p.forward(w, r, nil, owner); err == nil {
			return
		}
		p.c.markDown(owner.ID)
	}
	p.c.proxyErrors.Add(1)
	writeJSONError(w, http.StatusBadGateway, fmt.Errorf("shard %s holding job %s is unreachable", owner.ID, r.PathValue("id")))
}

// batchWire mirrors the API layer's batch request/response shapes
// without committing to its field set: items stay raw bytes, routed by
// their envelope and reassembled in order.
type batchWire struct {
	Requests []json.RawMessage `json:"requests"`
}

// batchResultsWire decodes a sub-batch response.
type batchResultsWire struct {
	Results []json.RawMessage `json:"results"`
}

// batch fans POST /v1/decompose/batch out across the cluster: items
// group by owning shard, sub-batches execute in parallel on their
// owners, and the merged response preserves input order. A dead shard
// fails only its own items.
func (p *proxy) batch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var wire batchWire
	if err := json.Unmarshal(body, &wire); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	// Enforce the API layer's cap before fan-out: split sub-batches could
	// otherwise admit an oversized batch that a single node would reject.
	if len(wire.Requests) > httpapi.MaxBatchRequests {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("batch carries %d requests, limit %d", len(wire.Requests), httpapi.MaxBatchRequests))
		return
	}

	// Group item indices by owning member.
	groups := make(map[string][]int)
	memberByID := make(map[string]Member)
	results := make([]json.RawMessage, len(wire.Requests))
	for i, raw := range wire.Requests {
		key, err := routingKey(raw)
		if err != nil {
			results[i] = errorItem(err)
			continue
		}
		owner, ok := p.c.ring.OwnerAmong(key, p.c.alive)
		if !ok {
			results[i] = errorItem(fmt.Errorf("no live shard owns key %s", key))
			continue
		}
		groups[owner.ID] = append(groups[owner.ID], i)
		memberByID[owner.ID] = owner
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards results slots written by sub-batches
	for id, indices := range groups {
		wg.Add(1)
		go func(m Member, indices []int) {
			defer wg.Done()
			sub := p.runSubBatch(r, m, wire.Requests, indices)
			mu.Lock()
			for j, idx := range indices {
				if j < len(sub) {
					results[idx] = sub[j]
				} else {
					results[idx] = errorItem(fmt.Errorf("shard %s answered %d of %d batch items", m.ID, len(sub), len(indices)))
				}
			}
			mu.Unlock()
		}(memberByID[id], indices)
	}
	wg.Wait()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(batchResultsWire{Results: results})
}

// runSubBatch executes the indexed subset of items on member m (locally
// for self) and returns the per-item results in subset order.
func (p *proxy) runSubBatch(r *http.Request, m Member, items []json.RawMessage, indices []int) []json.RawMessage {
	sub := batchWire{Requests: make([]json.RawMessage, 0, len(indices))}
	for _, idx := range indices {
		sub.Requests = append(sub.Requests, items[idx])
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil
	}

	var data []byte
	if m.ID == p.c.self.ID {
		rec := newBufferedResponse()
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		p.c.servedLocal.Add(1)
		p.local.ServeHTTP(rec, r2)
		if rec.status != http.StatusOK {
			return errorItems(indices, fmt.Errorf("local sub-batch failed with status %d", rec.status))
		}
		data = rec.buf.Bytes()
	} else {
		p.c.fanoutBatches.Add(1)
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, m.URL+"/v1/decompose/batch", bytes.NewReader(body))
		if err != nil {
			return errorItems(indices, err)
		}
		req.Header.Set("Content-Type", "application/json")
		p.c.setPeerAuth(req.Header)
		obs.InjectTrace(r.Context(), req.Header)
		resp, err := p.c.proxyClient.Do(req)
		if err != nil {
			p.c.markDown(m.ID)
			return errorItems(indices, fmt.Errorf("shard %s unreachable: %w", m.ID, err))
		}
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxPeerBodyBytes))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return errorItems(indices, fmt.Errorf("shard %s sub-batch failed (status %d)", m.ID, resp.StatusCode))
		}
	}
	var out batchResultsWire
	if err := json.Unmarshal(data, &out); err != nil {
		return errorItems(indices, fmt.Errorf("undecodable sub-batch response: %w", err))
	}
	return out.Results
}

// errorItems renders one error into a result slot per index.
func errorItems(indices []int, err error) []json.RawMessage {
	out := make([]json.RawMessage, len(indices))
	for i := range out {
		out[i] = errorItem(err)
	}
	return out
}

// errorItem renders a batch error slot in the API layer's item shape.
func errorItem(err error) json.RawMessage {
	data, _ := json.Marshal(map[string]string{"error": err.Error()})
	return data
}

// newBufferedResponse returns a response recorder for programmatic local
// sub-requests.
func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: make(http.Header)}
}

// bufferedResponse is a minimal in-memory http.ResponseWriter.
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

// Header implements http.ResponseWriter.
func (b *bufferedResponse) Header() http.Header { return b.header }

// WriteHeader implements http.ResponseWriter.
func (b *bufferedResponse) WriteHeader(code int) { b.status = code }

// Write implements http.ResponseWriter.
func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

// writeJSONError renders a routing-layer error in the API's error shape.
func writeJSONError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
