package strongdecomp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// twoComponentGraph returns two disjoint cycles in one host graph.
func twoComponentGraph(t *testing.T) *Graph {
	t.Helper()
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
	}
	g, err := NewGraph(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// registerBlocking registers a construction whose Decompose parks until
// released (or its context dies), so tests can observe true concurrency.
func registerBlocking(t *testing.T, name string, started chan<- struct{}, release <-chan struct{}) {
	t.Helper()
	err := Register(name, func() Decomposer {
		return DecomposerFuncs{
			Meta: AlgorithmInfo{Name: name, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(ctx context.Context, g *Graph, _ RunOptions) (*Decomposition, error) {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
				}
				d := &Decomposition{Assign: make([]int, g.N()), Color: []int{0}, K: 1, Colors: 1}
				return d, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Unregister(name) })
}

// TestEngineDecomposeRunsComponentsInParallel proves that a multi-component
// graph is decomposed by more than one worker at once: both components must
// be inside the (blocking) construction simultaneously before either is
// released.
func TestEngineDecomposeRunsComponentsInParallel(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlocking(t, "test-block-comp", started, release)

	e := NewEngine(WithWorkers(2), WithEngineAlgorithm("test-block-comp"))
	g := twoComponentGraph(t)

	done := make(chan error, 1)
	go func() {
		d, err := engineDecompose(context.Background(), e, g, 0)
		if err == nil && d.K != 2 {
			err = fmt.Errorf("merged %d clusters, want 2", d.K)
		}
		done <- err
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d component runs started concurrently; engine is serializing", i)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stats := e.Stats(); stats.MaxParallel < 2 {
		t.Fatalf("max parallelism %d, want >= 2", stats.MaxParallel)
	}
}

// TestEngineDecomposeBatchUsesMultipleWorkers is the batch-level variant:
// two graphs of the batch must be in flight simultaneously.
func TestEngineDecomposeBatchUsesMultipleWorkers(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlocking(t, "test-block-batch", started, release)

	e := NewEngine(WithWorkers(4), WithEngineAlgorithm("test-block-batch"))
	gs := []*Graph{PathGraph(4), PathGraph(5), PathGraph(6)}

	done := make(chan error, 1)
	go func() {
		out, err := e.DecomposeBatch(context.Background(), gs, nil)
		if err == nil && len(out) != 3 {
			err = fmt.Errorf("got %d results, want 3", len(out))
		}
		done <- err
	}()

	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d batch runs started concurrently; engine is serializing", i)
		}
	}
	// Drain the third start (whenever it comes) and release everyone.
	go func() {
		for range started {
		}
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(started)
	if stats := e.Stats(); stats.MaxParallel < 2 {
		t.Fatalf("max parallelism %d, want >= 2", stats.MaxParallel)
	}
}

// TestEngineBatchHonorsCancellation cancels mid-batch while runs are parked
// inside the construction and demands an ErrCanceled-matching failure.
func TestEngineBatchHonorsCancellation(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	registerBlocking(t, "test-block-cancel", started, release)

	e := NewEngine(WithWorkers(2), WithEngineAlgorithm("test-block-cancel"))
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := e.DecomposeBatch(ctx, []*Graph{PathGraph(4), PathGraph(5), PathGraph(6)}, nil)
		done <- err
	}()
	<-started // at least one run is mid-flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled batch returned %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled batch did not return")
	}
}

// TestEngineDecomposeMergesComponentsCorrectly runs real constructions over
// a multi-component graph and validates the merged decomposition.
func TestEngineDecomposeMergesComponentsCorrectly(t *testing.T) {
	g := twoComponentGraph(t)
	for _, name := range []string{"chang-ghaffari", "mpx", "sequential"} {
		e := NewEngine(WithWorkers(2), WithEngineAlgorithm(name))
		out, err := e.Run(context.Background(), g, Params{Seed: 3, Meter: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyDecomposition(g, out.Decomposition, -1, true); err != nil {
			t.Fatalf("%s merged decomposition invalid: %v", name, err)
		}
		if out.Rounds == 0 {
			t.Fatalf("%s: no rounds after metered engine run", name)
		}
		// A meter reused across runs accumulates sequentially: the second
		// run must add on top of the first, not max against it.
		m := NewMeter()
		for range 2 {
			first := m.Rounds()
			if _, err := e.DecomposeBatch(context.Background(), []*Graph{g}, &RunOptions{Seed: 3, Meter: m}); err != nil {
				t.Fatal(err)
			}
			if m.Rounds() <= first {
				t.Fatalf("%s: reused meter did not accumulate (%d then %d)", name, first, m.Rounds())
			}
		}
	}
}

// TestEngineSharedAcrossGoroutines exercises one Engine value from many
// goroutines simultaneously — the serving-process usage pattern; run with
// -race (CI does) to check the scratch pool and counters.
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	e := NewEngine(WithWorkers(4))
	g := twoComponentGraph(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			d, err := engineDecompose(context.Background(), e, g, seed)
			if err == nil {
				err = VerifyDecomposition(g, d, -1, true)
			}
			if err == nil {
				_, err = e.DecomposeBatch(context.Background(), []*Graph{CycleGraph(32), GridGraph(5, 5)}, nil)
			}
			if err != nil {
				errs <- err
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stats := e.Stats(); stats.Runs == 0 {
		t.Fatal("engine recorded no runs")
	}
}

// TestEngineUnknownAlgorithm pins the registry error on a misconfigured
// engine.
func TestEngineUnknownAlgorithm(t *testing.T) {
	e := NewEngine(WithEngineAlgorithm("nope"))
	if _, err := engineDecompose(context.Background(), e, PathGraph(3), 0); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
	if _, err := engineCarve(context.Background(), e, PathGraph(3), 0.5, 0); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
}

// engineDecompose runs a seeded decomposition through Engine.Run.
func engineDecompose(ctx context.Context, e *Engine, g *Graph, seed int64) (*Decomposition, error) {
	out, err := e.Run(ctx, g, Params{Seed: seed})
	if err != nil {
		return nil, err
	}
	return out.Decomposition, nil
}

// engineCarve runs a seeded ball carving through Engine.Run.
func engineCarve(ctx context.Context, e *Engine, g *Graph, eps float64, seed int64) (*Carving, error) {
	out, err := e.Run(ctx, g, Params{Kind: KindCarve, Eps: eps, Seed: seed})
	if err != nil {
		return nil, err
	}
	return out.Carving, nil
}

// TestEngineCarveDelegates checks the carving path of the engine on a
// connected graph (direct dispatch) and a multi-component graph (parallel
// per-component carve + merge).
func TestEngineCarveDelegates(t *testing.T) {
	e := NewEngine(WithWorkers(2))
	g := CycleGraph(64)
	c, err := engineCarve(context.Background(), e, g, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCarving(g, c, 0.5, -1); err != nil {
		t.Fatal(err)
	}

	multi := twoComponentGraph(t)
	for _, name := range []string{"chang-ghaffari", "mpx"} {
		e := NewEngine(WithWorkers(2), WithEngineAlgorithm(name))
		c, err := engineCarve(context.Background(), e, multi, 0.5, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyCarving(multi, c, 0.5, -1); err != nil {
			t.Fatalf("%s merged carving invalid: %v", name, err)
		}
	}
}
