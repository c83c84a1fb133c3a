package shard

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strongdecomp/internal/obs"
	"strongdecomp/internal/service"
)

// Config parameterizes NewCluster.
type Config struct {
	// SelfID names this process's shard; it must appear in Members.
	SelfID string
	// Members is the full cluster membership, this shard included.
	Members []Member
	// VNodes is the per-member virtual-node count (0: DefaultVNodes).
	VNodes int
	// ProbeInterval is how often peers are health-checked (0: 2s;
	// negative: no background probing — peers are then only marked down
	// when forwarding to them fails, and never revived).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0: 1 second).
	ProbeTimeout time.Duration
	// PeerTimeout bounds one peer cache lookup or replication push
	// (0: 10 seconds).
	PeerTimeout time.Duration
	// Replicas is how many ring successors (beyond the owner) receive
	// copies of freshly computed results and stored graphs. 0 disables
	// replication; negative values are treated as 0. cmd/serve supplies
	// the default (1) through its flag default.
	Replicas int
	// Secret, when non-empty, is a shared token every cluster-internal
	// request must carry (X-Strongdecomp-Cluster-Key); requests with a
	// missing or mismatched token are rejected. All shards must be
	// started with the same value.
	Secret string
}

// ParseMembers parses the -cluster-peers flag format: a comma-separated
// list of id=url pairs, e.g.
// "shard0=http://127.0.0.1:8080,shard1=http://127.0.0.1:8081".
func ParseMembers(spec string) ([]Member, error) {
	var out []Member
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("shard: malformed peer %q (want id=url)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("shard: duplicate peer ID %q", id)
		}
		seen[id] = true
		out = append(out, Member{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shard: empty peer list")
	}
	return out, nil
}

// Cluster is one shard's view of the serving tier: the (immutable) ring,
// the (mutable) liveness of its peers, the HTTP clients used to talk to
// them, and the counters the metrics endpoint exports. A Cluster is
// created once per process by cmd/serve and shared by the proxy handler
// and the service's ClusterHooks.
type Cluster struct {
	self        Member
	ring        *Ring
	members     []Member // sorted by ID, includes self
	cfg         Config
	client      *http.Client // bounded control-plane calls (probe, peer cache, replication)
	proxyClient *http.Client // unbounded: proxied computations and result streams

	mu         sync.Mutex
	down       map[string]bool
	draining   bool
	replicated map[string]bool // graph hashes already pushed to successors

	stopProbe chan struct{}
	probeWG   sync.WaitGroup

	proxied         atomic.Int64
	proxyErrors     atomic.Int64
	servedLocal     atomic.Int64
	reroutes        atomic.Int64
	fanoutBatches   atomic.Int64
	peerCacheHits   atomic.Int64
	peerCacheMisses atomic.Int64
	peerCacheServed atomic.Int64
	resultReplicas  atomic.Int64
	graphReplicas   atomic.Int64
	replicaErrors   atomic.Int64
}

// maxReplicatedGraphs bounds the replication dedup set; past it the set
// resets and pushes become idempotent re-sends.
const maxReplicatedGraphs = 8192

// NewCluster validates the membership, builds the ring, and starts the
// background health prober.
func NewCluster(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Members, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	self, ok := ring.Member(cfg.SelfID)
	if !ok {
		return nil, fmt.Errorf("shard: self ID %q not in member list", cfg.SelfID)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.PeerTimeout == 0 {
		cfg.PeerTimeout = 10 * time.Second
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	c := &Cluster{
		self:        self,
		ring:        ring,
		members:     ring.Members(),
		cfg:         cfg,
		client:      &http.Client{Timeout: cfg.PeerTimeout},
		proxyClient: &http.Client{},
		down:        make(map[string]bool),
		replicated:  make(map[string]bool),
		stopProbe:   make(chan struct{}),
	}
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the background prober. It does not touch in-flight proxied
// requests.
func (c *Cluster) Close() {
	select {
	case <-c.stopProbe:
	default:
		close(c.stopProbe)
	}
	c.probeWG.Wait()
}

// Self returns this process's member record.
func (c *Cluster) Self() Member { return c.self }

// Ring exposes the cluster's ring (for tests and topology endpoints).
func (c *Cluster) Ring() *Ring { return c.ring }

// SetDraining flips the draining flag readiness reports: a draining
// shard answers /readyz with 503 so load balancers stop routing to it
// while in-flight work settles.
func (c *Cluster) SetDraining(v bool) {
	c.mu.Lock()
	c.draining = v
	c.mu.Unlock()
}

// setPeerAuth stamps the cluster-internal credentials onto an outgoing
// peer request: the shard header naming this node, and the shared
// secret when one is configured. Every request a shard sends to a peer
// goes through here (forwards, pushes, lookups, probes excepted —
// /healthz is public).
func (c *Cluster) setPeerAuth(h http.Header) {
	h.Set(internalHeader, c.self.ID)
	if c.cfg.Secret != "" {
		h.Set(secretHeader, c.cfg.Secret)
	}
}

// authorizePeer validates an incoming request's cluster-internal
// credentials: the shard header must resolve to a ring member, and when
// a shared secret is configured the secret header must match it. This
// is what stops an ordinary client from forging the internal header to
// inject cache records or bypass routing.
func (c *Cluster) authorizePeer(r *http.Request) error {
	id := r.Header.Get(internalHeader)
	if id == "" {
		return fmt.Errorf("missing %s header", internalHeader)
	}
	if _, ok := c.ring.Member(id); !ok {
		return fmt.Errorf("%s names unknown shard %q", internalHeader, id)
	}
	if c.cfg.Secret != "" {
		got := r.Header.Get(secretHeader)
		if subtle.ConstantTimeCompare([]byte(got), []byte(c.cfg.Secret)) != 1 {
			return fmt.Errorf("missing or mismatched %s header", secretHeader)
		}
	}
	return nil
}

// alive reports whether a member is believed reachable. Self is always
// alive.
func (c *Cluster) alive(id string) bool {
	if id == c.self.ID {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.down[id]
}

// markDown records a peer as unreachable (a failed forward or probe).
func (c *Cluster) markDown(id string) {
	if id == c.self.ID {
		return
	}
	c.mu.Lock()
	c.down[id] = true
	c.mu.Unlock()
}

// markUp revives a peer after a successful probe.
func (c *Cluster) markUp(id string) {
	c.mu.Lock()
	delete(c.down, id)
	c.mu.Unlock()
}

// probeLoop health-checks every peer each interval, marking them up or
// down by whether /healthz answers. Probing is how a dead peer comes
// back: passive failure marking only ever takes peers out.
func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-ticker.C:
			c.probeOnce()
		}
	}
}

// probeOnce probes every peer once, concurrently.
func (c *Cluster) probeOnce() {
	var wg sync.WaitGroup
	for _, m := range c.members {
		if m.ID == c.self.ID {
			continue
		}
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				c.markDown(m.ID)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.markUp(m.ID)
			} else {
				c.markDown(m.ID)
			}
		}(m)
	}
	wg.Wait()
}

// Ready implements the readiness contract behind GET /readyz: an error
// while draining, and an error when so many peers are unreachable that
// this shard no longer sees a strict majority of the cluster — the
// quorum guard that stops a partitioned minority from serving stale
// routing.
func (c *Cluster) Ready() error {
	c.mu.Lock()
	draining := c.draining
	downCount := 0
	for _, m := range c.members {
		if m.ID != c.self.ID && c.down[m.ID] {
			downCount++
		}
	}
	c.mu.Unlock()
	if draining {
		return fmt.Errorf("shard %s is draining", c.self.ID)
	}
	live := len(c.members) - downCount // self included
	if live*2 <= len(c.members) {
		return fmt.Errorf("unreachable peers exceed quorum: %d of %d members live", live, len(c.members))
	}
	return nil
}

// HealthDetail is the topology block GET /healthz gains in cluster mode:
// shard identity, ring parameters, and per-peer liveness.
func (c *Cluster) HealthDetail() map[string]any {
	c.mu.Lock()
	draining := c.draining
	down := make(map[string]bool, len(c.down))
	for id, d := range c.down {
		down[id] = d
	}
	c.mu.Unlock()
	peers := make([]map[string]any, 0, len(c.members))
	for _, m := range c.members {
		peers = append(peers, map[string]any{
			"id":    m.ID,
			"url":   m.URL,
			"alive": m.ID == c.self.ID || !down[m.ID],
			"self":  m.ID == c.self.ID,
		})
	}
	return map[string]any{
		"shard_id": c.self.ID,
		"ring": map[string]any{
			"members":  len(c.members),
			"vnodes":   c.ring.VNodes(),
			"replicas": c.cfg.Replicas,
		},
		"peers":    peers,
		"draining": draining,
	}
}

// Stats exports the shard counters for /metrics (strongdecomp_shard_* in
// the Prometheus exposition, the "shard" block in JSON).
func (c *Cluster) Stats() map[string]int64 {
	c.mu.Lock()
	downCount := int64(0)
	for _, m := range c.members {
		if m.ID != c.self.ID && c.down[m.ID] {
			downCount++
		}
	}
	draining := int64(0)
	if c.draining {
		draining = 1
	}
	c.mu.Unlock()
	return map[string]int64{
		"proxied_total":           c.proxied.Load(),
		"proxy_errors_total":      c.proxyErrors.Load(),
		"served_local_total":      c.servedLocal.Load(),
		"reroutes_total":          c.reroutes.Load(),
		"fanout_batches_total":    c.fanoutBatches.Load(),
		"peer_cache_hits_total":   c.peerCacheHits.Load(),
		"peer_cache_misses_total": c.peerCacheMisses.Load(),
		"peer_cache_served_total": c.peerCacheServed.Load(),
		"result_replicas_total":   c.resultReplicas.Load(),
		"graph_replicas_total":    c.graphReplicas.Load(),
		"replica_errors_total":    c.replicaErrors.Load(),
		"members":                 int64(len(c.members)),
		"peers_down":              downCount,
		"draining":                draining,
	}
}

// Hooks returns the service.ClusterHooks wiring this cluster into a
// Service: the peer-cache miss path and the replication callbacks.
func (c *Cluster) Hooks() service.ClusterHooks {
	return service.ClusterHooks{
		PeerLookup:       c.PeerLookup,
		OnResultComputed: c.ReplicateResult,
		OnGraphStored:    c.ReplicateGraph,
	}
}

// PeerLookup is the peer tier of the service's result lookup (local LRU
// → local disk → here → compute): ask the key's live owner for its
// cached copy, and on an owner miss fan out to every other live peer —
// a result cached on any node is a network hop, never a recompute.
func (c *Cluster) PeerLookup(ctx context.Context, graphHash string, paramsKey string, n int) (*service.Result, bool) {
	owner, ok := c.ring.OwnerAmong(graphHash, c.alive)
	if ok && owner.ID != c.self.ID {
		if res, ok := c.fetchPeerResult(ctx, owner, graphHash, paramsKey, n); ok {
			c.peerCacheHits.Add(1)
			return res, true
		}
	}
	// Owner miss (or self-owned): fan out to the remaining live peers in
	// parallel; first hit wins. Replicas and previously-owning nodes
	// answer here after the ring shifted under a failure.
	type hit struct{ res *service.Result }
	results := make(chan hit, len(c.members))
	var wg sync.WaitGroup
	for _, m := range c.members {
		if m.ID == c.self.ID || (ok && m.ID == owner.ID) || !c.alive(m.ID) {
			continue
		}
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			if res, ok := c.fetchPeerResult(ctx, m, graphHash, paramsKey, n); ok {
				results <- hit{res}
			}
		}(m)
	}
	go func() { wg.Wait(); close(results) }()
	if h, ok := <-results; ok {
		c.peerCacheHits.Add(1)
		return h.res, true
	}
	c.peerCacheMisses.Add(1)
	return nil, false
}

// fetchPeerResult asks one peer's /internal/cache endpoint for a result
// record and decodes it.
func (c *Cluster) fetchPeerResult(ctx context.Context, m Member, graphHash, paramsKey string, n int) (*service.Result, bool) {
	url := m.URL + "/internal/cache/" + graphHash + "/" + hex.EncodeToString([]byte(paramsKey))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false
	}
	c.setPeerAuth(req.Header)
	obs.InjectTrace(ctx, req.Header)
	resp, err := c.client.Do(req)
	if err != nil {
		c.markDown(m.ID)
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBodyBytes))
	if err != nil {
		return nil, false
	}
	res, ok := service.DecodeResultRecord(data, graphHash, paramsKey, n)
	if !ok {
		return nil, false
	}
	return res, true
}

// ReplicateResult pushes a freshly computed result record to the key's
// ring successors, asynchronously and best-effort: replication narrows
// the window in which a shard death loses cached work, it is not a
// durability guarantee (the disk tier is).
func (c *Cluster) ReplicateResult(graphHash string, paramsKey string, res *service.Result) {
	targets := c.replicaTargets(graphHash)
	if len(targets) == 0 {
		return
	}
	data, err := service.EncodeResultRecord(graphHash, paramsKey, res)
	if err != nil {
		return
	}
	url := "/internal/cache/" + graphHash + "/" + hex.EncodeToString([]byte(paramsKey))
	go func() {
		for _, m := range targets {
			if c.push(m, url, "application/json", data) {
				c.resultReplicas.Add(1)
			}
		}
	}()
}

// ReplicateGraph pushes a stored graph's CSR snapshot, the bytes the
// service spilled, to its ring successors as they are (once per hash per
// process — PutGraph fires on every inline request, replication must not;
// the snapshot is asked for only when a push is due).
func (c *Cluster) ReplicateGraph(graphHash string, snapshot func() []byte) {
	c.mu.Lock()
	if c.replicated[graphHash] {
		c.mu.Unlock()
		return
	}
	if len(c.replicated) >= maxReplicatedGraphs {
		c.replicated = make(map[string]bool)
	}
	c.replicated[graphHash] = true
	c.mu.Unlock()

	targets := c.replicaTargets(graphHash)
	if len(targets) == 0 {
		return
	}
	data := snapshot()
	go func() {
		for _, m := range targets {
			if c.push(m, "/internal/graphs/"+graphHash, "application/octet-stream", data) {
				c.graphReplicas.Add(1)
			}
		}
	}()
}

// replicaTargets returns the live non-self members among the key's owner
// and its cfg.Replicas successors — the nodes that must hold a copy for
// the ring (minus one member) to keep serving the key.
func (c *Cluster) replicaTargets(key string) []Member {
	succ := c.ring.Successors(key, c.cfg.Replicas+1, c.alive)
	out := succ[:0:0]
	for _, m := range succ {
		if m.ID != c.self.ID {
			out = append(out, m)
		}
	}
	if len(out) > c.cfg.Replicas {
		out = out[:c.cfg.Replicas]
	}
	return out
}

// push PUTs one replication payload to a peer.
func (c *Cluster) push(m Member, path, contentType string, data []byte) bool {
	req, err := http.NewRequest(http.MethodPut, m.URL+path, bytes.NewReader(data))
	if err != nil {
		c.replicaErrors.Add(1)
		return false
	}
	req.Header.Set("Content-Type", contentType)
	c.setPeerAuth(req.Header)
	resp, err := c.client.Do(req)
	if err != nil {
		c.markDown(m.ID)
		c.replicaErrors.Add(1)
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		c.replicaErrors.Add(1)
		return false
	}
	return true
}
