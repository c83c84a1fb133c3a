package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
)

// registerPersistStub registers a deterministic construction whose output
// is structurally valid under the persistence record validation: a 2-color
// decomposition whose assignment depends on the seed, and a carving with
// one dead node per three plus per-cluster Steiner trees (so the tree
// codec is exercised too). Returns (name, compute counter).
func registerPersistStub(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("persist-stub-%s", t.Name())
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
					if v%3 == 0 {
						assign[v] = cluster.Unclustered
					} else {
						assign[v] = v % 2
					}
				}
				t0, t1 := cluster.NewTree(1), cluster.NewTree(2)
				return &cluster.Carving{Assign: assign, K: 2, Centers: []int{1, 2}, Trees: []*cluster.Tree{t0, t1}}, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(name) })
	return name, count
}

// newPersistentService builds a service over dir defaulting to algo.
func newPersistentService(t *testing.T, dir, algo string) *Service {
	t.Helper()
	s, err := New(Config{DataDir: dir, DefaultAlgorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServicePersistRestart is the restart property end-to-end: a graph
// uploaded and decomposed by one service instance is served by a second
// instance on the same data directory — the graph from its spilled CSR
// snapshot, the result from its spilled record, with zero recomputation.
func TestServicePersistRestart(t *testing.T) {
	dir := t.TempDir()
	g := graph.ClusterGraph(3, 8, 0.6, 7)
	ctx := context.Background()

	algo, count := registerPersistStub(t)
	s1 := newPersistentService(t, dir, algo)
	hash := s1.PutGraph(g)
	first, err := s1.Decompose(ctx, &Request{Hash: hash, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request claims a cache hit")
	}
	carved, err := s1.Carve(ctx, &Request{Hash: hash, Eps: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Persist == nil || st.Persist.GraphSaves != 1 || st.Persist.ResultSaves != 2 {
		t.Fatalf("persist stats after first run: %+v", st.Persist)
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs", hash+".csr")); err != nil {
		t.Fatalf("graph snapshot not spilled: %v", err)
	}
	s1.Close()

	// "Restart": a fresh service, same directory, empty memory tiers.
	s2 := newPersistentService(t, dir, algo)
	got, ok := s2.GetGraph(hash)
	if !ok {
		t.Fatal("restarted service does not serve the uploaded graph")
	}
	if graphio.Hash(got) != hash {
		t.Fatal("restarted service served a different graph")
	}
	res, err := s2.Decompose(ctx, &Request{Hash: hash, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("restarted service recomputed a persisted decomposition")
	}
	if res.Decomposition == nil || len(res.Decomposition.Assign) != g.N() {
		t.Fatal("persisted decomposition malformed")
	}
	// Bit-identical to the original computation (deterministic seeds make
	// this checkable directly).
	for v, c := range first.Decomposition.Assign {
		if res.Decomposition.Assign[v] != c {
			t.Fatalf("node %d: assign %d != original %d", v, res.Decomposition.Assign[v], c)
		}
	}
	res2, err := s2.Carve(ctx, &Request{Hash: hash, Eps: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit || res2.Carving == nil {
		t.Fatal("restarted service recomputed a persisted carving")
	}
	for v, c := range carved.Carving.Assign {
		if res2.Carving.Assign[v] != c {
			t.Fatalf("carve node %d: assign %d != original %d", v, res2.Carving.Assign[v], c)
		}
	}
	st := s2.Stats()
	if st.Persist.GraphDiskHits != 1 || st.Persist.ResultDiskHits != 2 {
		t.Fatalf("restart persist stats: %+v", st.Persist)
	}
	if st.CacheMisses != 0 {
		t.Fatalf("restarted service recorded %d cache misses, want 0", st.CacheMisses)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("backend computed %d times across both lifetimes, want 2", got)
	}
	if res2.Carving.Trees == nil || res2.Carving.Trees[0] == nil || res2.Carving.Trees[0].Root != 1 {
		t.Fatal("persisted carving lost its Steiner trees")
	}
}

// TestServicePersistEvictionFallsThroughToDisk: a graph evicted from the
// memory LRU is transparently reloaded from its snapshot on the next
// by-hash request.
func TestServicePersistEvictionFallsThroughToDisk(t *testing.T) {
	dir := t.TempDir()
	algo, _ := registerPersistStub(t)
	s, err := New(Config{DataDir: dir, GraphStoreSize: 1, DefaultAlgorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g1, g2 := graph.Cycle(12), graph.Path(9)
	h1 := s.PutGraph(g1)
	s.PutGraph(g2) // evicts g1 from the 1-entry memory store
	if _, ok := s.graphs.get(h1); ok {
		t.Fatal("g1 still resident; eviction assumption broken")
	}
	got, ok := s.GetGraph(h1)
	if !ok {
		t.Fatal("evicted graph not reloaded from disk")
	}
	if graphio.Hash(got) != h1 {
		t.Fatal("disk tier returned the wrong graph")
	}
}

// TestServicePersistQuarantineCorruptGraph flips a bit in a spilled
// snapshot and checks the service refuses to serve it: the request misses,
// the file is renamed aside, and the quarantine counter moves.
func TestServicePersistQuarantineCorruptGraph(t *testing.T) {
	dir := t.TempDir()
	algo, _ := registerPersistStub(t)
	s1 := newPersistentService(t, dir, algo)
	hash := s1.PutGraph(graph.Grid(4, 5))
	s1.Close()

	path := filepath.Join(dir, "graphs", hash+".csr")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newPersistentService(t, dir, algo)
	if _, ok := s2.GetGraph(hash); ok {
		t.Fatal("corrupt snapshot was served")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot still in serving namespace: %v", err)
	}
	if st := s2.Stats(); st.Persist.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Persist.Quarantined)
	}
}

// TestServicePersistQuarantineTamperedResult rewrites a persisted result
// record with an inconsistent assignment and checks the service
// quarantines it and recomputes rather than serving garbage.
func TestServicePersistQuarantineTamperedResult(t *testing.T) {
	dir := t.TempDir()
	g := graph.Cycle(10)
	ctx := context.Background()

	algo, _ := registerPersistStub(t)
	s1 := newPersistentService(t, dir, algo)
	hash := s1.PutGraph(g)
	if _, err := s1.Decompose(ctx, &Request{Hash: hash, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Tamper: truncate every result record to valid-JSON-prefix garbage.
	matches, err := filepath.Glob(filepath.Join(dir, "results", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want one result record, got %v (%v)", matches, err)
	}
	if err := os.WriteFile(matches[0], []byte(`{"schema":"strongdecomp/result/v1"`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newPersistentService(t, dir, algo)
	res, err := s2.Decompose(ctx, &Request{Hash: hash, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("tampered record served as a cache hit")
	}
	st := s2.Stats()
	if st.Persist.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Persist.Quarantined)
	}
	if _, err := os.Stat(matches[0] + ".corrupt"); err != nil {
		t.Fatalf("tampered record not quarantined: %v", err)
	}
}

// TestServicePersistUnknownHashStaysUnknown: a by-hash request for a graph
// never uploaded fails with ErrUnknownGraph even with a data directory.
func TestServicePersistUnknownHashStaysUnknown(t *testing.T) {
	algo, _ := registerPersistStub(t)
	s := newPersistentService(t, t.TempDir(), algo)
	hash := strings.Repeat("ab", 32)
	_, err := s.Decompose(context.Background(), &Request{Hash: hash})
	if err == nil || !strings.Contains(err.Error(), "unknown graph") {
		t.Fatalf("err = %v, want ErrUnknownGraph", err)
	}
}

// TestValidHash pins the path-safety gate: only 64-char lowercase hex may
// reach the filesystem. Anything else — traversal attempts included — is
// rejected before a path is formed.
func TestValidHash(t *testing.T) {
	good := graphio.Hash(graph.Path(3))
	if !validHash(good) {
		t.Fatalf("real hash %q rejected", good)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../../../../etc/passwd", strings.Repeat("a", 63) + "/",
		strings.Repeat("a", 65),
	} {
		if validHash(bad) {
			t.Errorf("validHash(%q) = true", bad)
		}
	}
}

// TestServicePersistBadDataDir: New surfaces an unusable data directory
// as a construction error instead of degrading silently.
func TestServicePersistBadDataDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: filepath.Join(file, "nested")}); err == nil {
		t.Fatal("New accepted a data dir under a regular file")
	}
}

// TestServicePersistParamsKeyedSeparately: results for different Params
// on the same graph land in distinct records, and each is found again.
func TestServicePersistParamsKeyedSeparately(t *testing.T) {
	dir := t.TempDir()
	g := graph.Torus(4, 4)
	ctx := context.Background()

	algo, _ := registerPersistStub(t)
	s1 := newPersistentService(t, dir, algo)
	hash := s1.PutGraph(g)
	for seed := int64(0); seed < 3; seed++ {
		if _, err := s1.Decompose(ctx, &Request{Hash: hash, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()

	matches, _ := filepath.Glob(filepath.Join(dir, "results", "*.json"))
	if len(matches) != 3 {
		t.Fatalf("want 3 result records, got %d", len(matches))
	}
	s2 := newPersistentService(t, dir, algo)
	for seed := int64(0); seed < 3; seed++ {
		res, err := s2.Decompose(ctx, &Request{Hash: hash, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("seed %d recomputed after restart", seed)
		}
	}
}

// TestDecodeResultRejectsBadMetadata: parseable records carrying
// out-of-range centers, malformed trees or an old schema must be rejected
// (and hence quarantined), not served — result records have no checksum,
// so this validation is the only line of defense against bit rot in them.
func TestDecodeResultRejectsBadMetadata(t *testing.T) {
	const n = 10
	base := func() persistedResult {
		return persistedResult{
			Schema: resultSchema, GraphHash: "h", ParamsKey: []byte("p"),
			Kind: "carve", K: 2,
			Assign:  []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1},
			Centers: []int{0, 1},
			Trees: []persistedTree{
				{Root: 0, Nodes: []int{0, 2, 4}, Parent: []int{-1, 0, 1}},
				{Root: -1},
			},
		}
	}
	key := cacheKey{hash: "h", params: "p"}
	if _, ok := decodeJSON(t, base(), key, n); !ok {
		t.Fatal("valid base record rejected")
	}
	mutations := map[string]func(*persistedResult){
		"schema-v1":             func(r *persistedResult) { r.Schema = "strongdecomp/result/v1" },
		"center-out-of-range":   func(r *persistedResult) { r.Centers[1] = n },
		"center-negative":       func(r *persistedResult) { r.Centers[1] = -1 },
		"centers-wrong-length":  func(r *persistedResult) { r.Centers = []int{0} },
		"tree-root-oob":         func(r *persistedResult) { r.Trees[1] = persistedTree{Root: n} },
		"tree-no-nodes":         func(r *persistedResult) { r.Trees[1] = persistedTree{Root: 1} },
		"tree-length-mismatch":  func(r *persistedResult) { r.Trees[0].Parent = []int{-1, 0} },
		"tree-root-not-first":   func(r *persistedResult) { r.Trees[0].Root = 2 },
		"tree-root-has-parent":  func(r *persistedResult) { r.Trees[0].Parent[0] = 1 },
		"tree-parent-forward":   func(r *persistedResult) { r.Trees[0].Parent[1] = 2 },
		"tree-parent-self":      func(r *persistedResult) { r.Trees[0].Parent[2] = 2 },
		"tree-parent-negative":  func(r *persistedResult) { r.Trees[0].Parent[2] = -1 },
		"tree-duplicate-node":   func(r *persistedResult) { r.Trees[0].Nodes[2] = 2 },
		"tree-node-oob":         func(r *persistedResult) { r.Trees[0].Nodes[2] = n },
		"tree-node-negative":    func(r *persistedResult) { r.Trees[0].Nodes[1] = -3 },
		"tree-absent-has-nodes": func(r *persistedResult) { r.Trees[1].Nodes = []int{1} },
		// The v1 failure mode: parents 2 -> 3 -> 2 never reach the root.
		"tree-cycle": func(r *persistedResult) {
			r.Trees[0] = persistedTree{Root: 1, Nodes: []int{1, 2, 3}, Parent: []int{-1, 2, 1}}
		},
	}
	for name, mutate := range mutations {
		rec := base()
		mutate(&rec)
		if _, ok := decodeJSON(t, rec, key, n); ok {
			t.Errorf("%s: corrupt record accepted", name)
		}
	}
}

// decodeJSON round-trips a record through its wire form into decodeResult.
func decodeJSON(t *testing.T, rec persistedResult, key cacheKey, n int) (*Result, bool) {
	t.Helper()
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return decodeResult(data, key, n)
}

// TestServicePersistQuarantineConcurrentReaders: many readers racing onto
// the same corrupt snapshot quarantine it exactly once — the rename is
// the arbiter, losers see a missing file, and no .corrupt.corrupt
// double-rename artifacts appear. This is the failure mode of a shared
// data directory behind a concurrent API.
func TestServicePersistQuarantineConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	algo, _ := registerPersistStub(t)
	s1 := newPersistentService(t, dir, algo)
	hash := s1.PutGraph(graph.Grid(6, 6))
	s1.Close()

	path := filepath.Join(dir, "graphs", hash+".csr")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newPersistentService(t, dir, algo)
	const readers = 16
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := s2.GetGraph(hash); ok {
				served.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := served.Load(); got != 0 {
		t.Fatalf("%d concurrent readers were served a corrupt snapshot", got)
	}
	if got := s2.Stats().Persist.Quarantined; got != 1 {
		t.Fatalf("quarantined = %d under %d concurrent readers, want exactly 1", got, readers)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt.corrupt"); !os.IsNotExist(err) {
		t.Fatal("double-quarantine artifact exists")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot still in serving namespace: %v", err)
	}
}
