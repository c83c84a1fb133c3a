package strongdecomp

import (
	"context"
	"testing"

	"strongdecomp/internal/graph"
)

// TestEngineComponentsScratchSurvivesShrinkThenGrow pins the scratch-reuse
// fix: a shrink-then-grow sequence of graph sizes through the same pooled
// scratch must keep producing correct component splits (the old code
// discarded grown queue capacity and could hand a stale mask to a bigger
// graph only by reallocating everything).
func TestEngineComponentsScratchSurvivesShrinkThenGrow(t *testing.T) {
	e := NewEngine(WithWorkers(1))
	for _, n := range []int{400, 8, 900, 3, 1500} {
		g := graph.DisjointUnion(graph.Cycle(n), graph.Path(n/3+2), graph.Star(5))
		comps := e.components(g)
		if len(comps) != 3 {
			t.Fatalf("n=%d: got %d components, want 3", n, len(comps))
		}
		total := 0
		for _, c := range comps {
			total += len(c)
		}
		if total != g.N() {
			t.Fatalf("n=%d: components cover %d of %d nodes", n, total, g.N())
		}
	}
}

// TestEngineComponentsSteadyStateAllocs guards the pooled-scratch promise:
// after warmup, splitting a graph into components allocates only the
// returned component slices.
func TestEngineComponentsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are nondeterministic")
	}
	e := NewEngine(WithWorkers(1))
	g := graph.DisjointUnion(graph.Cycle(300), graph.Grid(10, 10), graph.Path(50))
	e.components(g) // warm the pooled scratch
	allocs := testing.AllocsPerRun(50, func() {
		if len(e.components(g)) != 3 {
			t.Fatal("want 3 components")
		}
	})
	// 3 member slices + up to 3 growth steps of the comps header slice.
	if allocs > 6 {
		t.Fatalf("engine components allocates %v per run, want <= 6", allocs)
	}
}

// TestEngineRunWarmAllocs bounds a warm Engine.Run decompose of a
// 2000-node connected G(n, p). The carver state is pooled, so what remains
// is the decomposition's output and core's per-iteration buffers: 89
// allocations, against 162 when every rg.Carve built a fresh state.
func TestEngineRunWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are nondeterministic")
	}
	e := NewEngine()
	g := graph.ConnectedGnp(2000, 6.0/2000, 5)
	run := func() {
		if _, err := e.Run(context.Background(), g, Params{Algorithm: "chang-ghaffari"}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const ceiling = 110
	if allocs := testing.AllocsPerRun(5, run); allocs > ceiling {
		t.Fatalf("warm Engine.Run allocates %v per run, want <= %d", allocs, ceiling)
	}
}

// TestEngineDecomposeMultiComponentMatchesDirect re-runs the engine's
// parallel multi-component path against the per-component sequential path
// and asserts identical results — together with TestEngineFixtures (which
// pins the recorded pre-CSR outputs) this is the bit-identity guard, and
// CI runs both under -race.
func TestEngineDecomposeMultiComponentMatchesDirect(t *testing.T) {
	g := graph.DisjointUnion(
		graph.ConnectedGnp(200, 0.02, 9),
		graph.Cycle(77),
		graph.Grid(9, 9),
	)
	par := NewEngine(WithWorkers(8))
	seq := NewEngine(WithWorkers(1))
	for seed := int64(1); seed <= 3; seed++ {
		dp, err := engineDecompose(context.Background(), par, g, seed)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := engineDecompose(context.Background(), seq, g, seed)
		if err != nil {
			t.Fatal(err)
		}
		if dp.K != ds.K || dp.Colors != ds.Colors || !equalInts(dp.Assign, ds.Assign) || !equalInts(dp.Color, ds.Color) {
			t.Fatalf("seed %d: parallel and sequential engine results differ", seed)
		}
	}
}
