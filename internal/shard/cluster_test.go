package shard

// In-process cluster tests: N shards, each a real service.Service behind
// a real proxy handler on a real httptest listener, wired exactly like
// cmd/serve wires them (late-bound hooks, proxy over local API handler).
// Liveness probing is disabled (ProbeInterval < 0) so tests control the
// failure model explicitly with markDown — no timing-dependent revival.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/service"
	"strongdecomp/internal/service/httpapi"
)

// registerShardStub registers a deterministic seed-dependent construction
// and returns its name plus a counter of real computations.
func registerShardStub(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("shard-stub-%s", t.Name())
	count := &atomic.Int64{}
	err := registry.Register(name, func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{Name: name, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, opts registry.RunOptions) (*cluster.Decomposition, error) {
				count.Add(1)
				assign := make([]int, g.N())
				for v := range assign {
					assign[v] = (v + int(opts.Seed)) % 2
				}
				return &cluster.Decomposition{Assign: assign, Color: []int{0, 1}, K: 2, Colors: 2}, nil
			},
			CarveFunc: func(ctx context.Context, g *graph.Graph, eps float64, opts registry.RunOptions) (*cluster.Carving, error) {
				count.Add(1)
				assign := make([]int, g.N())
				for v := range assign {
					assign[v] = v % 2
				}
				return &cluster.Carving{Assign: assign, K: 2, Centers: []int{0, 1}}, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(name) })
	return name, count
}

// swapHandler lets a listener start before the handler behind it exists —
// the member URLs must be known before the clusters can be built. It
// counts the requests that reach the node, so tests can assert which
// peers a coordinator contacted.
type swapHandler struct {
	mu       sync.RWMutex
	h        http.Handler
	requests atomic.Int64
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testShard is one in-process cluster node.
type testShard struct {
	member  Member
	svc     *service.Service
	cluster *Cluster
	srv     *httptest.Server
	swap    *swapHandler
	dataDir string // empty unless built by newPersistentTestCluster
}

// newTestCluster builds an n-shard in-process cluster running algo.
func newTestCluster(t *testing.T, n int, algo string) []*testShard {
	t.Helper()
	return buildTestCluster(t, n, algo, false)
}

// newPersistentTestCluster is newTestCluster with a data directory per
// shard.
func newPersistentTestCluster(t *testing.T, n int, algo string) []*testShard {
	t.Helper()
	return buildTestCluster(t, n, algo, true)
}

func buildTestCluster(t *testing.T, n int, algo string, persist bool) []*testShard {
	t.Helper()
	shards := make([]*testShard, n)
	members := make([]Member, n)
	for i := range shards {
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		members[i] = Member{ID: fmt.Sprintf("s%d", i), URL: srv.URL}
		shards[i] = &testShard{member: members[i], srv: srv, swap: sw}
	}
	for _, sh := range shards {
		// Replicas is explicit: Config honors 0 as "no replication", and
		// these tests exercise the replication paths.
		c, err := NewCluster(Config{SelfID: sh.member.ID, Members: members, ProbeInterval: -1, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if persist {
			sh.dataDir = t.TempDir()
		}
		svc, err := service.New(service.Config{DefaultAlgorithm: algo, DataDir: sh.dataDir, Cluster: c.Hooks()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		sh.svc, sh.cluster = svc, c
		sh.swap.set(c.Handler(svc, httpapi.New(svc,
			httpapi.WithReadiness(c.Ready),
			httpapi.WithHealthDetail(c.HealthDetail),
			httpapi.WithClusterStats(c.Stats),
			httpapi.WithServedBy(sh.member.ID),
		)))
	}
	return shards
}

// shardIndex resolves a member ID back to its slice index.
func shardIndex(t *testing.T, shards []*testShard, id string) int {
	t.Helper()
	for i, sh := range shards {
		if sh.member.ID == id {
			return i
		}
	}
	t.Fatalf("no shard %q", id)
	return -1
}

// postJSON posts body to url and returns (status, response bytes).
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// computeWire is the subset of the compute response the tests assert on.
type computeWire struct {
	GraphHash string `json:"graph_hash"`
	K         int    `json:"k"`
	Assign    []int  `json:"assign"`
	Cached    bool   `json:"cached"`
	Peer      bool   `json:"peer"`
}

// decodeWire unmarshals into out, failing the test on garbage.
func decodeWire(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
}

// waitFor polls cond until true or the deadline, then fails.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterProxyRoutesToOwner: a graph uploaded through a non-owner
// node lands on the ring owner, compute requests through any node answer
// correctly, and repeats are owner cache hits — the whole cluster
// behaves as one service.
func TestClusterProxyRoutesToOwner(t *testing.T) {
	algo, count := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.Cycle(16)
	hash := graphio.Hash(g)

	owner := shardIndex(t, shards, shards[0].cluster.Ring().Owner(hash).ID)
	coord := (owner + 1) % 3

	status, body := postJSON(t, shards[coord].srv.URL+"/v1/graphs", graphio.ToDocument(g))
	if status != http.StatusOK {
		t.Fatalf("upload via coordinator: status %d: %s", status, body)
	}
	var up struct {
		Hash string `json:"hash"`
	}
	decodeWire(t, body, &up)
	if up.Hash != hash {
		t.Fatalf("upload hash %s, want %s", up.Hash, hash)
	}
	if _, ok := shards[owner].svc.GetGraph(hash); !ok {
		t.Fatal("graph did not land on its ring owner")
	}

	req := map[string]any{"hash": hash, "algo": algo, "seed": 3}
	status, body = postJSON(t, shards[coord].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("decompose via coordinator: status %d: %s", status, body)
	}
	var first computeWire
	decodeWire(t, body, &first)
	if first.GraphHash != hash || len(first.Assign) != g.N() || first.Cached {
		t.Fatalf("first compute: %+v", first)
	}

	// Repeat through the third node: same owner, so a cache hit.
	third := 3 - owner - coord
	status, body = postJSON(t, shards[third].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("repeat via third node: status %d: %s", status, body)
	}
	var second computeWire
	decodeWire(t, body, &second)
	if !second.Cached {
		t.Fatal("repeat through another node missed the owner's cache")
	}
	for v := range first.Assign {
		if first.Assign[v] != second.Assign[v] {
			t.Fatalf("node %d: assign diverged across coordinators", v)
		}
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times, want 1", got)
	}
	if st := shards[coord].cluster.Stats(); st["proxied_total"] == 0 {
		t.Fatal("coordinator proxied nothing; requests were served locally")
	}
}

// TestClusterEdgeListUploadOwnerAndNonOwner sends one edge list to the
// ring owner directly and to a shard that neither owns nor replicates it.
// Both answer with the same hash, n and m; the owner serves its upload
// locally (the proxy's parse handed to the local handler), the graph lands
// on the owner and then on its replica, and the non-owner only routes.
func TestClusterEdgeListUploadOwnerAndNonOwner(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.Grid(6, 7)
	hash := graphio.Hash(g)
	var el bytes.Buffer
	if err := graphio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}

	ring := shards[0].cluster.Ring()
	owner := shardIndex(t, shards, ring.Owner(hash).ID)
	replica := shardIndex(t, shards, ring.Successors(hash, 2, nil)[1].ID)
	other := 3 - owner - replica

	upload := func(sh *testShard) {
		t.Helper()
		resp, err := http.Post(sh.srv.URL+"/v1/graphs?format=edgelist", "text/plain", bytes.NewReader(el.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload via %s: status %d: %s", sh.member.ID, resp.StatusCode, body)
		}
		var up struct {
			Hash string `json:"hash"`
			N    int    `json:"n"`
			M    int    `json:"m"`
		}
		decodeWire(t, body, &up)
		if up.Hash != hash || up.N != g.N() || up.M != g.M() {
			t.Fatalf("upload via %s answered hash %s n=%d m=%d, want %s n=%d m=%d",
				sh.member.ID, up.Hash, up.N, up.M, hash, g.N(), g.M())
		}
	}

	before := shards[owner].cluster.Stats()
	upload(shards[owner])
	after := shards[owner].cluster.Stats()
	if after["served_local_total"] != before["served_local_total"]+1 {
		t.Fatalf("owner upload: served_local_total %d -> %d, want one more",
			before["served_local_total"], after["served_local_total"])
	}
	if after["proxied_total"] != before["proxied_total"] {
		t.Fatal("owner upload was proxied")
	}
	if got, ok := shards[owner].svc.GetGraph(hash); !ok || graphio.Hash(got) != hash {
		t.Fatal("owner upload did not land on the owner")
	}
	waitFor(t, "the replica to receive the graph", func() bool {
		_, ok := shards[replica].svc.GetGraph(hash)
		return ok
	})

	before = shards[other].cluster.Stats()
	upload(shards[other])
	if st := shards[other].cluster.Stats(); st["proxied_total"] != before["proxied_total"]+1 {
		t.Fatalf("non-owner upload: proxied_total %d -> %d, want one more",
			before["proxied_total"], st["proxied_total"])
	}
	if _, ok := shards[other].svc.GetGraph(hash); ok {
		t.Fatal("the non-owner stored the graph it only routed")
	}
}

// TestClusterKillOwnerServesReplicatedResult is the resilience
// acceptance test: upload + decompose through a coordinator, kill the
// owning shard, and the result — replicated to the ring successor at
// compute time — still serves through the surviving nodes, without
// recomputation. New requests for the same graph also keep working.
func TestClusterKillOwnerServesReplicatedResult(t *testing.T) {
	algo, count := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.ClusterGraph(3, 8, 0.6, 7)
	hash := graphio.Hash(g)

	ring := shards[0].cluster.Ring()
	owner := shardIndex(t, shards, ring.Owner(hash).ID)
	succ := shardIndex(t, shards, ring.Successors(hash, 2, nil)[1].ID)
	coord := 3 - owner - succ // the node that is neither owner nor replica

	if status, body := postJSON(t, shards[coord].srv.URL+"/v1/graphs", graphio.ToDocument(g)); status != http.StatusOK {
		t.Fatalf("upload: status %d: %s", status, body)
	}
	req := map[string]any{"hash": hash, "algo": algo, "seed": 3}
	status, body := postJSON(t, shards[coord].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("decompose: status %d: %s", status, body)
	}
	var first computeWire
	decodeWire(t, body, &first)

	// Replication is asynchronous; wait for the successor to hold both the
	// graph snapshot and the result record before pulling the plug.
	paramsKey := registry.Params{Algorithm: algo, Kind: registry.KindDecompose, Seed: 3, Meter: true}.Key()
	waitFor(t, "replica graph on successor", func() bool {
		_, ok := shards[succ].svc.GetGraph(hash)
		return ok
	})
	waitFor(t, "replica result on successor", func() bool {
		_, ok := shards[succ].svc.CachedResult(hash, paramsKey)
		return ok
	})

	// Kill the owner: listener down, and the survivors' liveness marks it
	// dead (the probe loop is off; a real deployment gets here via probes
	// or the first failed forward).
	shards[owner].srv.Close()
	for i, sh := range shards {
		if i != owner {
			sh.cluster.markDown(shards[owner].member.ID)
		}
	}

	status, body = postJSON(t, shards[coord].srv.URL+"/v1/decompose", req)
	if status != http.StatusOK {
		t.Fatalf("decompose after owner death: status %d: %s", status, body)
	}
	var after computeWire
	decodeWire(t, body, &after)
	if !after.Cached {
		t.Fatal("survivor recomputed a result that was replicated to it")
	}
	for v := range first.Assign {
		if first.Assign[v] != after.Assign[v] {
			t.Fatalf("node %d: post-failure assign %d != original %d", v, after.Assign[v], first.Assign[v])
		}
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times across the failure, want 1", got)
	}

	// Fresh work on the same graph keeps flowing: a new seed computes on
	// the inheriting survivor from its replicated snapshot.
	fresh := map[string]any{"hash": hash, "algo": algo, "seed": 4}
	status, body = postJSON(t, shards[coord].srv.URL+"/v1/decompose", fresh)
	if status != http.StatusOK {
		t.Fatalf("fresh seed after owner death: status %d: %s", status, body)
	}
	var freshRes computeWire
	decodeWire(t, body, &freshRes)
	if freshRes.Cached || len(freshRes.Assign) != g.N() {
		t.Fatalf("fresh seed after owner death: %+v", freshRes)
	}
}

// TestClusterPeerLookup: the peer tier finds a result cached on another
// node — via the owner directly, and via fan-out once the owner is dead.
func TestClusterPeerLookup(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.Torus(4, 4)
	hash := graphio.Hash(g)

	ring := shards[0].cluster.Ring()
	owner := shardIndex(t, shards, ring.Owner(hash).ID)
	succ := shardIndex(t, shards, ring.Successors(hash, 2, nil)[1].ID)
	other := 3 - owner - succ

	shards[owner].svc.PutGraph(g)
	res, err := shards[owner].svc.Decompose(context.Background(), &service.Request{Hash: hash, Algo: algo, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	paramsKey := registry.Params{Algorithm: algo, Kind: registry.KindDecompose, Seed: 5, Meter: true}.Key()
	waitFor(t, "replica result on successor", func() bool {
		_, ok := shards[succ].svc.CachedResult(hash, paramsKey)
		return ok
	})

	got, ok := shards[other].cluster.PeerLookup(context.Background(), hash, paramsKey, g.N())
	if !ok {
		t.Fatal("peer lookup missed a result the live owner holds")
	}
	for v := range res.Decomposition.Assign {
		if got.Decomposition.Assign[v] != res.Decomposition.Assign[v] {
			t.Fatalf("node %d: peer copy diverges", v)
		}
	}

	// Owner dead: the fan-out leg finds the replica on the successor.
	shards[other].cluster.markDown(shards[owner].member.ID)
	if _, ok := shards[other].cluster.PeerLookup(context.Background(), hash, paramsKey, g.N()); !ok {
		t.Fatal("fan-out missed the successor's replica after owner death")
	}
	if hits := shards[other].cluster.Stats()["peer_cache_hits_total"]; hits != 2 {
		t.Fatalf("peer_cache_hits_total = %d, want 2", hits)
	}
}

// doJob sends one bodiless job request and returns (status, served-by,
// body).
func doJob(t *testing.T, method, url string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return doServed(t, req)
}

// TestClusterJobsAcrossShards: a job ID names the shard holding the job,
// so a job submitted through one node is reachable through every node by
// routing on the ID alone — one hop to the named shard, no owner table
// and no fan-out. IDs no member minted 404 without a hop, and a poll for
// a down shard's job answers 502 without asking anyone else.
func TestClusterJobsAcrossShards(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	g := graph.Grid(5, 5)
	hash := graphio.Hash(g)

	owner := shardIndex(t, shards, shards[0].cluster.Ring().Owner(hash).ID)
	coord := (owner + 1) % 3
	third := 3 - owner - coord

	if status, body := postJSON(t, shards[coord].srv.URL+"/v1/graphs", graphio.ToDocument(g)); status != http.StatusOK {
		t.Fatalf("upload: status %d: %s", status, body)
	}
	data, _ := json.Marshal(map[string]any{"hash": hash, "algo": algo, "seed": 9})
	req, _ := http.NewRequest(http.MethodPost, shards[coord].srv.URL+"/v2/jobs", bytes.NewReader(data))
	status, servedBy, body := doServed(t, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var job struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		ResultURL string `json:"result_url"`
	}
	decodeWire(t, body, &job)
	prefix, bare := httpapi.JobShard(job.ID)
	if prefix != servedBy || prefix != shards[owner].member.ID {
		t.Fatalf("job %q: prefix %q, served by %q, ring owner %q", job.ID, prefix, servedBy, shards[owner].member.ID)
	}

	// Every node answers every job endpoint, and the answer always comes
	// from the owner.
	nodes := []int{coord, owner, third}
	polled := job
	for _, i := range nodes {
		waitFor(t, fmt.Sprintf("job done via %s", shards[i].member.ID), func() bool {
			status, by, data := doJob(t, http.MethodGet, shards[i].srv.URL+"/v2/jobs/"+job.ID)
			return status == http.StatusOK && by == prefix && json.Unmarshal(data, &polled) == nil && polled.State == "done"
		})
		if polled.ID != job.ID || polled.ResultURL != "/v2/jobs/"+job.ID+"/result" {
			t.Fatalf("poll via %s answered id %q, result_url %q", shards[i].member.ID, polled.ID, polled.ResultURL)
		}
	}
	for _, i := range nodes {
		base := shards[i].srv.URL
		status, by, data := doJob(t, http.MethodGet, base+polled.ResultURL)
		if status != http.StatusOK || by != prefix {
			t.Fatalf("result_url via %s: status %d, served by %q: %s", shards[i].member.ID, status, by, data)
		}
		var res computeWire
		decodeWire(t, data, &res)
		if res.GraphHash != hash || len(res.Assign) != g.N() {
			t.Fatalf("job result via %s: %+v", shards[i].member.ID, res)
		}
		// Canceling a done job is idempotent: it echoes the done state.
		status, by, data = doJob(t, http.MethodDelete, base+"/v2/jobs/"+job.ID)
		if status != http.StatusOK || by != prefix || json.Unmarshal(data, &polled) != nil || polled.State != "done" {
			t.Fatalf("DELETE via %s: status %d, served by %q: %s", shards[i].member.ID, status, by, data)
		}
	}

	// An unprefixed ID and one naming no member route nowhere: the
	// receiving node's handler answers the canonical 404 itself.
	proxied := shards[third].cluster.Stats()["proxied_total"]
	for _, id := range []string{bare, "mallory." + bare} {
		if status, by, data := doJob(t, http.MethodGet, shards[third].srv.URL+"/v2/jobs/"+id); status != http.StatusNotFound || by != shards[third].member.ID {
			t.Fatalf("job %q: status %d, served by %q (%s), want a local 404", id, status, by, data)
		}
	}
	if got := shards[third].cluster.Stats()["proxied_total"]; got != proxied {
		t.Fatalf("unroutable IDs were proxied: proxied_total %d -> %d", proxied, got)
	}

	// Owner down: the one shard that holds the job is unreachable, so the
	// poll answers 502 and no other peer is asked.
	shards[third].cluster.markDown(shards[owner].member.ID)
	before := [3]int64{}
	for i, sh := range shards {
		before[i] = sh.swap.requests.Load()
	}
	if status, _, data := doJob(t, http.MethodGet, shards[third].srv.URL+"/v2/jobs/"+job.ID); status != http.StatusBadGateway {
		t.Fatalf("poll with the owner down: status %d (%s), want 502", status, data)
	}
	for i, sh := range shards {
		want := before[i]
		if i == third {
			want++ // the poll itself
		}
		if got := sh.swap.requests.Load(); got != want {
			t.Fatalf("%s received %d requests during the poll, want %d", sh.member.ID, got-before[i], want-before[i])
		}
	}
}

// TestClusterBatchFanout: a batch posted to one node splits across the
// owning shards and reassembles in request order.
func TestClusterBatchFanout(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)

	// Enough distinct graphs that at least two different shards own some.
	var graphs []*graph.Graph
	for n := 10; n < 18; n++ {
		graphs = append(graphs, graph.Cycle(n))
	}
	owners := make(map[string]bool)
	items := make([]map[string]any, 0, len(graphs))
	for _, g := range graphs {
		owners[shards[0].cluster.Ring().Owner(graphio.Hash(g)).ID] = true
		items = append(items, map[string]any{"graph": graphio.ToDocument(g), "algo": algo, "seed": 1})
	}
	if len(owners) < 2 {
		t.Fatal("test graphs all landed on one shard; balance assumption broken")
	}
	// One malformed item: errors must stay slot-local.
	items = append(items, map[string]any{"hash": "deadbeef", "algo": algo})

	status, body := postJSON(t, shards[0].srv.URL+"/v1/decompose/batch", map[string]any{"requests": items})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var out struct {
		Results []struct {
			Result *computeWire `json:"result"`
			Error  string       `json:"error"`
		} `json:"results"`
	}
	decodeWire(t, body, &out)
	if len(out.Results) != len(items) {
		t.Fatalf("batch answered %d of %d items", len(out.Results), len(items))
	}
	for i, g := range graphs {
		slot := out.Results[i]
		if slot.Result == nil {
			t.Fatalf("item %d failed: %s", i, slot.Error)
		}
		if slot.Result.GraphHash != graphio.Hash(g) {
			t.Fatalf("item %d answered for graph %s, want %s", i, slot.Result.GraphHash, graphio.Hash(g))
		}
		if len(slot.Result.Assign) != g.N() {
			t.Fatalf("item %d: assign length %d, want %d", i, len(slot.Result.Assign), g.N())
		}
	}
	last := out.Results[len(items)-1]
	if last.Result != nil || last.Error == "" {
		t.Fatalf("malformed trailing item did not error: %+v", last)
	}
}

// TestClusterReadyQuorum pins the readiness contract: ready with a
// majority live, unready while draining or partitioned into a minority.
func TestClusterReadyQuorum(t *testing.T) {
	members := testMembers(3)
	c, err := NewCluster(Config{SelfID: members[0].ID, Members: members, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ready(); err != nil {
		t.Fatalf("fresh cluster unready: %v", err)
	}
	c.markDown(members[1].ID)
	if err := c.Ready(); err != nil {
		t.Fatalf("2 of 3 live is a majority, got: %v", err)
	}
	c.markDown(members[2].ID)
	if err := c.Ready(); err == nil {
		t.Fatal("1 of 3 live reported ready")
	}
	c.markUp(members[1].ID)
	c.markUp(members[2].ID)
	c.SetDraining(true)
	if err := c.Ready(); err == nil {
		t.Fatal("draining shard reported ready")
	}
	c.SetDraining(false)
	if err := c.Ready(); err != nil {
		t.Fatalf("undrained cluster unready: %v", err)
	}
}

// TestNewClusterRejectsForeignSelf: the self ID must be a ring member.
func TestNewClusterRejectsForeignSelf(t *testing.T) {
	if _, err := NewCluster(Config{SelfID: "ghost", Members: testMembers(3), ProbeInterval: -1}); err == nil {
		t.Fatal("self outside the membership accepted")
	}
}

// doReq performs an arbitrary request and returns (status, body).
func doReq(t *testing.T, req *http.Request) (int, []byte) {
	t.Helper()
	status, _, out := doServed(t, req)
	return status, out
}

// doServed performs an arbitrary request and returns (status, the
// shard that served it, body).
func doServed(t *testing.T, req *http.Request) (int, string, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(httpapi.ServedByHeader), out
}

// TestClusterInternalAuth pins the peer-authentication contract: the
// /internal/ surface and the internal-header routing bypass are only
// reachable with a shard header naming a ring member — a client forging
// the header (or omitting it on /internal/) is rejected, so it cannot
// inject cache records, push graphs, or pin its own request placement.
func TestClusterInternalAuth(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	base := shards[0].srv.URL
	record := []byte(`{"schema":"strongdecomp/result/v1"}`)

	// /internal/ without the shard header: rejected before any admission.
	req, _ := http.NewRequest(http.MethodPut, base+"/internal/cache/deadbeef/00", bytes.NewReader(record))
	if status, body := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("headerless internal PUT: status %d (%s), want 403", status, body)
	}

	// /internal/ with a header naming a shard outside the ring: rejected.
	req, _ = http.NewRequest(http.MethodPut, base+"/internal/cache/deadbeef/00", bytes.NewReader(record))
	req.Header.Set(internalHeader, "mallory")
	if status, body := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("forged internal PUT: status %d (%s), want 403", status, body)
	}
	req, _ = http.NewRequest(http.MethodGet, base+"/internal/ring", nil)
	req.Header.Set(internalHeader, "mallory")
	if status, _ := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("forged ring introspection: status %d, want 403", status)
	}

	// Every routed endpoint: a forged header is rejected before routing,
	// and a member's header pins the request to this node — served here
	// even though another shard owns the graph (or the job ID).
	var g *graph.Graph
	for n := 9; g == nil; n++ {
		if c := graph.Cycle(n); shards[0].cluster.Ring().Owner(graphio.Hash(c)).ID != shards[0].member.ID {
			g = c
		}
	}
	hash := graphio.Hash(g)
	jobPath := "/v2/jobs/" + shards[0].cluster.Ring().Owner(hash).ID + ".deadbeef"
	compute := map[string]any{"graph": graphio.ToDocument(g), "algo": algo, "eps": 0.5}
	for _, ep := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/graphs", graphio.ToDocument(g)},
		{http.MethodGet, "/v1/graphs/" + hash, nil},
		{http.MethodPost, "/v1/decompose", compute},
		{http.MethodPost, "/v1/carve", compute},
		{http.MethodPost, "/v1/decompose/batch", map[string]any{"requests": []any{compute}}},
		{http.MethodPost, "/v2/apps/mis", compute},
		{http.MethodPost, "/v2/jobs", compute},
		{http.MethodGet, jobPath, nil},
		{http.MethodDelete, jobPath, nil},
		{http.MethodGet, jobPath + "/result", nil},
	} {
		send := func(shardID string) (int, string, []byte) {
			var body io.Reader
			if ep.body != nil {
				data, _ := json.Marshal(ep.body)
				body = bytes.NewReader(data)
			}
			req, _ := http.NewRequest(ep.method, base+ep.path, body)
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(internalHeader, shardID)
			return doServed(t, req)
		}
		if status, _, out := send("mallory"); status != http.StatusForbidden {
			t.Fatalf("%s %s with a forged header: status %d (%s), want 403", ep.method, ep.path, status, out)
		}
		proxied := shards[0].cluster.Stats()["proxied_total"]
		status, by, out := send(shards[1].member.ID)
		if status == http.StatusForbidden || by != shards[0].member.ID {
			t.Fatalf("%s %s with a member header: status %d, served by %q (%s), want served here", ep.method, ep.path, status, by, out)
		}
		if got := shards[0].cluster.Stats()["proxied_total"]; got != proxied {
			t.Fatalf("%s %s with a member header was proxied onward", ep.method, ep.path)
		}
	}

	// A genuine member ID still passes (membership-only mode).
	req, _ = http.NewRequest(http.MethodGet, base+"/internal/ring", nil)
	req.Header.Set(internalHeader, shards[1].member.ID)
	if status, out := doReq(t, req); status != http.StatusOK {
		t.Fatalf("member-authenticated ring introspection: status %d (%s), want 200", status, out)
	}
}

// TestClusterSharedSecret: with Config.Secret set, membership alone is
// not enough — internal requests must also present the token.
func TestClusterSharedSecret(t *testing.T) {
	algo, _ := registerShardStub(t)
	members := testMembers(2)
	svc, err := service.New(service.Config{DefaultAlgorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	c, err := NewCluster(Config{SelfID: members[0].ID, Members: members, ProbeInterval: -1, Secret: "sesame"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := httptest.NewServer(c.Handler(svc, httpapi.New(svc)))
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/internal/ring", nil)
	req.Header.Set(internalHeader, members[1].ID)
	if status, _ := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("member without secret: status %d, want 403", status)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/internal/ring", nil)
	req.Header.Set(internalHeader, members[1].ID)
	req.Header.Set(secretHeader, "wrong")
	if status, _ := doReq(t, req); status != http.StatusForbidden {
		t.Fatalf("member with wrong secret: status %d, want 403", status)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/internal/ring", nil)
	c.setPeerAuth(req.Header)
	if status, out := doReq(t, req); status != http.StatusOK {
		t.Fatalf("member with secret: status %d (%s), want 200", status, out)
	}
}

// TestClusterBatchCap: the coordinator enforces the API layer's batch
// cap before fan-out, matching the single-node 400 instead of splitting
// an oversized batch into passing sub-batches.
func TestClusterBatchCap(t *testing.T) {
	algo, _ := registerShardStub(t)
	shards := newTestCluster(t, 3, algo)
	items := make([]map[string]any, httpapi.MaxBatchRequests+1)
	for i := range items {
		items[i] = map[string]any{"hash": "deadbeef", "algo": algo}
	}
	status, body := postJSON(t, shards[0].srv.URL+"/v1/decompose/batch", map[string]any{"requests": items})
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch via coordinator: status %d (%.120s), want 400", status, body)
	}
}

// TestClusterReplicasZero: an explicit Replicas of 0 means no
// replication — no successor is ever targeted.
func TestClusterReplicasZero(t *testing.T) {
	members := testMembers(3)
	c, err := NewCluster(Config{SelfID: members[0].ID, Members: members, ProbeInterval: -1, Replicas: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.replicaTargets("0000000000000000000000000000000000000000000000000000000000000000"); len(got) != 0 {
		t.Fatalf("Replicas=0 still targets %v", got)
	}
}
