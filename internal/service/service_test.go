package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
)

// registerStub registers a trivially-valid decomposer under a unique name
// and returns (name, compute counter). gate, when non-nil, is received
// from inside every computation — the test controls when computations
// finish.
func registerStub(t *testing.T, gate chan struct{}) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("svc-stub-%s", t.Name())
	count := &atomic.Int64{}
	err := registry.Register(name, func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{Name: name, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, opts registry.RunOptions) (*cluster.Decomposition, error) {
				count.Add(1)
				if gate != nil {
					select {
					case <-gate:
					case <-ctx.Done():
						return nil, registry.CtxErr(ctx)
					}
				}
				return &cluster.Decomposition{
					Assign: make([]int, g.N()), Color: []int{int(opts.Seed)},
					K: 1, Colors: 1,
				}, nil
			},
			CarveFunc: func(ctx context.Context, g *graph.Graph, eps float64, opts registry.RunOptions) (*cluster.Carving, error) {
				count.Add(1)
				return &cluster.Carving{Assign: make([]int, g.N()), K: 1}, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(name) })
	return name, count
}

// decomposeKey builds the cache identity the service computes for a
// decompose request — the graph content hash plus the canonical Params
// encoding (the service always opts into metering).
func decomposeKey(g *graph.Graph, algo string, seed int64) cacheKey {
	p := registry.Params{Algorithm: algo, Kind: registry.KindDecompose, Seed: seed, Meter: true}
	return cacheKey{hash: graphio.Hash(g), params: p.Key()}
}

func TestServiceCacheHit(t *testing.T) {
	algo, count := registerStub(t, nil)
	s, _ := New(Config{})
	g := graph.Cycle(12)
	ctx := context.Background()

	first, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Shared {
		t.Fatalf("first request flagged CacheHit=%v Shared=%v", first.CacheHit, first.Shared)
	}
	if first.GraphHash != graphio.Hash(g) {
		t.Fatal("result carries wrong graph hash")
	}

	second, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical repeat request not served from cache")
	}
	if second.Decomposition != first.Decomposition {
		t.Fatal("cache returned a different payload")
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times, want 1", got)
	}

	// A different seed is a different identity.
	third, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("different seed must not hit the cache")
	}

	st := s.Stats()
	a := st.Algorithms[algo]
	if a.Requests != 3 || a.CacheHits != 1 || a.CacheMisses != 2 || a.Computes != 2 {
		t.Fatalf("stats = %+v, want requests 3, hits 1, misses 2, computes 2", a)
	}
	if st.CacheHits != 1 || st.CachedResults != 2 || st.StoredGraphs != 1 {
		t.Fatalf("service stats = %+v", st)
	}
}

// TestServiceSingleflight drives concurrent identical requests into the
// in-flight deduplicator: one backend computation, every follower shares
// it. The gate holds the leader's computation open until all followers are
// provably blocked on it, so the assertion is deterministic (and the -race
// CI job exercises the synchronization).
func TestServiceSingleflight(t *testing.T) {
	gate := make(chan struct{})
	algo, count := registerStub(t, gate)
	s, _ := New(Config{})
	g := graph.Grid(4, 4)
	key := decomposeKey(g, algo, 7)

	const followers = 7
	results := make([]*Result, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Decompose(context.Background(), &Request{Graph: g, Algo: algo, Seed: 7})
		}(i)
		if i == 0 {
			waitForCondition(t, func() bool { return count.Load() == 1 }) // leader is computing
		}
	}
	waitForCondition(t, func() bool {
		s.results.flight.mu.Lock()
		defer s.results.flight.mu.Unlock()
		c := s.results.flight.calls[key]
		return c != nil && c.parties.Load() == followers+1 // +1: the leader
	})
	close(gate)
	wg.Wait()

	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times, want 1", got)
	}
	shared := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Decomposition != results[0].Decomposition {
			t.Fatal("followers received a different payload")
		}
		if results[i].Shared {
			shared++
		}
	}
	if shared != followers {
		t.Fatalf("%d shared results, want %d", shared, followers)
	}
	if st := s.Stats().Algorithms[algo]; st.DedupShared != followers {
		t.Fatalf("DedupShared = %d, want %d", st.DedupShared, followers)
	}
}

// TestServiceLeaderCancelDoesNotPoisonFollowers: the computation runs on a
// context detached from the request that started it, so a leader client
// giving up (disconnect, deadline) fails only its own request — followers
// of the same flight still receive the shared result.
func TestServiceLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	gate := make(chan struct{})
	algo, count := registerStub(t, gate)
	s, _ := New(Config{})
	g := graph.Grid(4, 4)
	key := decomposeKey(g, algo, 11)
	req := func() *Request { return &Request{Graph: g, Algo: algo, Seed: 11} }

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	var (
		leaderErr            error
		followerRes          *Result
		followerErr          error
		leaderWG, followerWG sync.WaitGroup
	)
	leaderWG.Add(1)
	go func() {
		defer leaderWG.Done()
		_, leaderErr = s.Decompose(leaderCtx, req())
	}()
	waitForCondition(t, func() bool { return count.Load() == 1 })

	followerWG.Add(1)
	go func() {
		defer followerWG.Done()
		followerRes, followerErr = s.Decompose(context.Background(), req())
	}()
	waitForCondition(t, func() bool {
		s.results.flight.mu.Lock()
		defer s.results.flight.mu.Unlock()
		c := s.results.flight.calls[key]
		return c != nil && c.parties.Load() == 2
	})

	cancelLeader()
	leaderWG.Wait()
	if !errors.Is(leaderErr, registry.ErrCanceled) {
		t.Fatalf("leader err = %v, want ErrCanceled", leaderErr)
	}

	close(gate) // the computation was not canceled with the leader
	followerWG.Wait()
	if followerErr != nil {
		t.Fatalf("follower err = %v, want shared result", followerErr)
	}
	if !followerRes.Shared || followerRes.Decomposition == nil {
		t.Fatalf("follower result = %+v, want shared payload", followerRes)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times, want 1", got)
	}
	st := s.Stats().Algorithms[algo]
	if st.Errors != 1 { // the abandoned leader counts as a failed request
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
}

// TestServiceAbandonedFlightCanceled: when the last caller interested in a
// flight gives up, the detached computation is canceled rather than left
// running.
func TestServiceAbandonedFlightCanceled(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	algo, _ := registerStub(t, gate)
	s, _ := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	g := graph.Path(6)
	done := make(chan error, 1)
	go func() {
		_, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo, Seed: 1})
		done <- err
	}()
	waitForCondition(t, func() bool {
		s.results.flight.mu.Lock()
		defer s.results.flight.mu.Unlock()
		return len(s.results.flight.calls) == 1
	})
	cancel()
	if err := <-done; !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The gated stub only returns when its context dies; the flight
	// draining proves the computation was canceled, not left hanging.
	waitForCondition(t, func() bool {
		s.results.flight.mu.Lock()
		defer s.results.flight.mu.Unlock()
		return len(s.results.flight.calls) == 0
	})
	if hits := s.results.lru.len(); hits != 0 {
		t.Fatalf("canceled computation was cached (%d entries)", hits)
	}
}

// TestServiceFreshFlightAfterAbandon: once the last caller abandons a
// flight it is unlinked immediately, so a later identical request starts a
// fresh computation instead of joining the dying one and inheriting its
// cancellation error.
func TestServiceFreshFlightAfterAbandon(t *testing.T) {
	gate := make(chan struct{})
	algo, count := registerStub(t, gate)
	s, _ := New(Config{})
	g := graph.Cycle(8)
	req := func() *Request { return &Request{Graph: g, Algo: algo, Seed: 2} }

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Decompose(ctx, req())
		done <- err
	}()
	waitForCondition(t, func() bool { return count.Load() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("abandoned leader err = %v, want ErrCanceled", err)
	}

	// The abandoned flight's goroutine may still be draining, but the
	// retry must not see it: it starts computation #2 and succeeds.
	retry := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = s.Decompose(context.Background(), req())
		close(retry)
	}()
	waitForCondition(t, func() bool { return count.Load() == 2 })
	close(gate)
	<-retry
	if err != nil {
		t.Fatalf("retry err = %v, want fresh result", err)
	}
	if res.CacheHit || res.Shared {
		t.Fatalf("retry flagged CacheHit=%v Shared=%v, want a fresh computation", res.CacheHit, res.Shared)
	}
}

func waitForCondition(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timeout waiting for condition")
}

func TestServiceByHash(t *testing.T) {
	algo, _ := registerStub(t, nil)
	s, _ := New(Config{})
	g := graph.Star(9)
	hash := s.PutGraph(g)
	if hash != graphio.Hash(g) {
		t.Fatal("PutGraph returned a non-content hash")
	}
	if got, ok := s.GetGraph(hash); !ok || got != g {
		t.Fatal("GetGraph does not return the stored graph")
	}

	res, err := s.Decompose(context.Background(), &Request{Hash: hash, Algo: algo})
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphHash != hash {
		t.Fatal("by-hash result carries wrong hash")
	}

	// Inline requests self-register their graph for later by-hash use.
	s2, _ := New(Config{})
	if _, err := s2.Decompose(context.Background(), &Request{Graph: g, Algo: algo}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Decompose(context.Background(), &Request{Hash: hash, Algo: algo}); err != nil {
		t.Fatalf("inline request did not register the graph: %v", err)
	}
}

func TestServiceErrors(t *testing.T) {
	algo, _ := registerStub(t, nil)
	s, _ := New(Config{})
	g := graph.Path(4)
	ctx := context.Background()

	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"no graph", func() error {
			_, err := s.Decompose(ctx, &Request{Algo: algo})
			return err
		}, ErrInvalidRequest},
		{"both graph and hash", func() error {
			_, err := s.Decompose(ctx, &Request{Graph: g, Hash: "x", Algo: algo})
			return err
		}, ErrInvalidRequest},
		{"unknown hash", func() error {
			_, err := s.Decompose(ctx, &Request{Hash: "deadbeef", Algo: algo})
			return err
		}, ErrUnknownGraph},
		{"unknown algorithm", func() error {
			_, err := s.Decompose(ctx, &Request{Graph: g, Algo: "no-such-algo"})
			return err
		}, registry.ErrUnknownAlgorithm},
		{"bad eps zero", func() error {
			_, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: 0})
			return err
		}, ErrInvalidRequest},
		{"bad eps high", func() error {
			_, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: 1.5})
			return err
		}, ErrInvalidRequest},
		{"bad eps NaN", func() error {
			_, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: math.NaN()})
			return err
		}, ErrInvalidRequest},
		{"bad eps +Inf", func() error {
			_, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: math.Inf(1)})
			return err
		}, ErrInvalidRequest},
		{"bad eps -Inf", func() error {
			_, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: math.Inf(-1)})
			return err
		}, ErrInvalidRequest},
		{"bad eps negative", func() error {
			_, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: -0.25})
			return err
		}, ErrInvalidRequest},
		{"negative timeout decompose", func() error {
			_, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo, Timeout: -time.Second})
			return err
		}, ErrInvalidRequest},
		{"negative timeout carve", func() error {
			_, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: 0.5, Timeout: -1})
			return err
		}, ErrInvalidRequest},
		{"nil request", func() error {
			_, err := s.Decompose(ctx, nil)
			return err
		}, ErrInvalidRequest},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Caller-supplied algorithm names reach the stats table (and /metrics)
	// only after registry validation.
	if _, polluted := s.Stats().Algorithms["no-such-algo"]; polluted {
		t.Error("unregistered algorithm name admitted into the stats table")
	}
}

// TestServiceGraphStoreBudget: the graph store is bounded by total size,
// not only entry count — cheap requests with huge graphs evict older
// entries, and a graph exceeding the whole budget is not retained.
func TestServiceGraphStoreBudget(t *testing.T) {
	algo, _ := registerStub(t, nil)
	// Weights are real CSR bytes: 8*(n+1) offsets + 8*2m targets + 64.
	s, _ := New(Config{GraphStoreBudget: 1000})
	small := graph.Path(10) // weight 8*(11+18) + 64 = 296
	hSmall := s.PutGraph(small)
	if _, ok := s.GetGraph(hSmall); !ok {
		t.Fatal("small graph not stored")
	}

	big := graph.Path(40) // weight 8*(41+78) + 64 = 1016 > 1000
	if hBig := s.PutGraph(big); hBig == "" {
		t.Fatal("PutGraph must still return the hash")
	} else if _, ok := s.GetGraph(hBig); ok {
		t.Fatal("over-budget graph was retained")
	}
	// The over-budget put must not have evicted the resident small graph
	// for nothing... it may have; what matters is the budget holds. An
	// inline request with the big graph still computes.
	if _, err := s.Decompose(context.Background(), &Request{Graph: big, Algo: algo}); err != nil {
		t.Fatalf("inline over-budget graph failed to compute: %v", err)
	}

	// Medium graphs evict older ones instead of overflowing the budget.
	g1, g2 := graph.Cycle(20), graph.Grid(4, 5) // weights 552 and 728
	h1, h2 := s.PutGraph(g1), s.PutGraph(g2)
	if _, ok := s.GetGraph(h2); !ok {
		t.Fatal("most recent graph missing from store")
	}
	if _, ok := s.GetGraph(h1); ok {
		t.Fatal("budget exceeded: both medium graphs retained (552+728 > 1000)")
	}
}

func TestServiceTimeout(t *testing.T) {
	gate := make(chan struct{}) // never closed: computations only end by cancellation
	defer close(gate)
	algo, _ := registerStub(t, gate)
	s, _ := New(Config{Timeout: 20 * time.Millisecond})
	_, err := s.Decompose(context.Background(), &Request{Graph: graph.Path(4), Algo: algo})
	if !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st := s.Stats().Algorithms[algo]; st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
}

func TestServiceCacheEviction(t *testing.T) {
	algo, count := registerStub(t, nil)
	s, _ := New(Config{CacheSize: 2})
	ctx := context.Background()
	g := graph.Cycle(6)
	for seed := int64(0); seed < 3; seed++ { // fills and overflows the 2-entry cache
		if _, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	// Seed 0 was evicted by seed 2; seed 2 is still resident.
	res, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo, Seed: 2})
	if err != nil || !res.CacheHit {
		t.Fatalf("expected cache hit for resident entry (err=%v, hit=%v)", err, res.CacheHit)
	}
	res, err = s.Decompose(ctx, &Request{Graph: g, Algo: algo, Seed: 0})
	if err != nil || res.CacheHit {
		t.Fatalf("expected recompute for evicted entry (err=%v, hit=%v)", err, res.CacheHit)
	}
	if got := count.Load(); got != 4 {
		t.Fatalf("backend computed %d times, want 4", got)
	}
}

func TestServiceCarveKindSeparation(t *testing.T) {
	algo, _ := registerStub(t, nil)
	s, _ := New(Config{})
	ctx := context.Background()
	g := graph.Grid(3, 3)
	if _, err := s.Decompose(ctx, &Request{Graph: g, Algo: algo}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Carve(ctx, &Request{Graph: g, Algo: algo, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("carve hit the decompose cache entry")
	}
	if res.Carving == nil || res.Kind != "carve" {
		t.Fatalf("carve result malformed: %+v", res)
	}
}

func TestServiceDefaultAlgorithm(t *testing.T) {
	algo, count := registerStub(t, nil)
	s, _ := New(Config{DefaultAlgorithm: algo})
	res, err := s.Decompose(context.Background(), &Request{Graph: graph.Path(5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algo != algo || count.Load() != 1 {
		t.Fatalf("default algorithm not used: %+v", res)
	}
}

// TestServiceRequestTimeoutBoundsOnlyCaller: a request's own Timeout
// bounds that caller's wait, not the shared flight — a concurrent
// identical request without a timeout still receives the result. The
// patient caller starts the flight, so the flight exists until it is
// served; the impatient caller joins it under the group lock before its
// wait can see its deadline, so it leaves a flight of two parties however
// early that deadline fires. (A leader that leaves before anyone joins
// abandons its flight, which TestServiceAbandonedFlightCanceled pins; a
// leader leaving a joined flight is TestServiceLeaderCancelDoesNotPoisonFollowers.)
func TestServiceRequestTimeoutBoundsOnlyCaller(t *testing.T) {
	gate := make(chan struct{})
	algo, count := registerStub(t, gate)
	s, _ := New(Config{})
	g := graph.Grid(4, 4)
	req := func(d time.Duration) *Request { return &Request{Graph: g, Algo: algo, Seed: 2, Timeout: d} }

	// Patient leader: no timeout, on a computation held by the gate.
	var (
		patientRes *Result
		patientErr error
		patientWG  sync.WaitGroup
	)
	patientWG.Add(1)
	go func() {
		defer patientWG.Done()
		patientRes, patientErr = s.Decompose(context.Background(), req(0))
	}()
	waitForCondition(t, func() bool { return count.Load() == 1 })

	// Impatient follower: joins the flight with a 5ms wait bound, which
	// fires while the gate is closed.
	if _, err := s.Decompose(context.Background(), req(5*time.Millisecond)); !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("impatient caller err = %v, want ErrCanceled", err)
	}
	if st := s.Stats().Algorithms[algo]; st.DedupShared != 1 {
		t.Fatalf("DedupShared = %d, want 1: the impatient caller did not join the flight", st.DedupShared)
	}
	key := decomposeKey(g, algo, 2)
	s.results.flight.mu.Lock()
	c := s.results.flight.calls[key]
	s.results.flight.mu.Unlock()
	if c == nil || c.parties.Load() != 1 {
		t.Fatal("the impatient caller's timeout ended the shared flight")
	}

	close(gate)
	patientWG.Wait()
	if patientErr != nil {
		t.Fatalf("patient caller err = %v — the impatient caller's timeout killed the shared flight", patientErr)
	}
	if patientRes == nil || patientRes.Decomposition == nil {
		t.Fatal("patient caller got no result")
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("backend computed %d times, want 1", got)
	}
}

// TestServiceAdmitResultRevalidatedAfterGraphArrives pins the safety
// contract of blind replica admission: cluster replication can deliver a
// result record before its graph, so AdmitResult admits it with only
// internal-consistency checks — but once the graph arrives, every serve
// path must re-validate against the node count instead of serving an
// assignment that does not cover the graph, and nothing unvalidated may
// reach the disk tier.
func TestServiceAdmitResultRevalidatedAfterGraphArrives(t *testing.T) {
	algo, count := registerStub(t, nil)
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, DefaultAlgorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := graph.Cycle(12)
	hash := graphio.Hash(g)
	key := decomposeKey(g, algo, 0)

	// A record that is internally consistent but covers 5 nodes, not 12.
	short := &Result{
		GraphHash: hash, Kind: "decompose", Algo: algo, Seed: 0,
		Decomposition: &cluster.Decomposition{Assign: make([]int, 5), Color: []int{0}, K: 1, Colors: 1},
	}
	data, err := EncodeResultRecord(hash, key.params, short)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdmitResult(hash, key.params, data); err != nil {
		t.Fatalf("internally consistent record rejected: %v", err)
	}

	// Unvalidated admission must not have been spilled to disk.
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err == nil && len(entries) != 0 {
		t.Fatalf("unvalidated replica record persisted to disk: %v", entries)
	}

	// The graph arrives (replica push). Serving the key must recompute,
	// not echo the wrong-length record out of the memory cache.
	if err := s.AdmitGraph(hash, graphio.EncodeCSR(g)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Decompose(context.Background(), &Request{Hash: hash, Algo: algo})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("wrong-length replica served as a cache hit")
	}
	if len(res.Decomposition.Assign) != g.N() {
		t.Fatalf("assign length %d, want %d", len(res.Decomposition.Assign), g.N())
	}
	if count.Load() != 1 {
		t.Fatalf("backend computed %d times, want 1", count.Load())
	}

	// The peer-serving lookup applies the same re-validation: re-poison
	// the memory cache, and CachedResult must drop the record, then find
	// the good spilled copy on disk.
	if err := s.AdmitResult(hash, key.params, data); err == nil {
		// With the graph now resolvable the short record is rejected
		// outright — which is the point; force the stale-cache scenario
		// by injecting directly.
		t.Fatal("wrong-length record admitted while the graph is resolvable")
	}
	s.results.lru.put(cacheKey{hash: hash, params: key.params}, short)
	got, ok := s.CachedResult(hash, key.params)
	if !ok {
		t.Fatal("CachedResult missed the validated disk copy")
	}
	if len(got.Decomposition.Assign) != g.N() {
		t.Fatalf("CachedResult served assign length %d, want %d", len(got.Decomposition.Assign), g.N())
	}
}
