package engine

import (
	"math"
	"runtime"
	"testing"

	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
)

// TestEngineComponentsScratchSurvivesShrinkThenGrow pins the scratch-reuse
// fix: a shrink-then-grow sequence of graph sizes through the same pooled
// scratch must keep producing correct component splits (the old code
// discarded grown queue capacity and could hand a stale mask to a bigger
// graph only by reallocating everything).
func TestEngineComponentsScratchSurvivesShrinkThenGrow(t *testing.T) {
	e := New(WithWorkers(1))
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

// TestEngineComponentsSteadyStateAllocs guards the reused-scratch promise:
// after warmup, splitting a graph into components allocates only the
// returned component slices.
func TestEngineComponentsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are nondeterministic")
	}
	e := New(WithWorkers(1))
	g := graph.DisjointUnion(graph.Cycle(300), graph.Grid(10, 10), graph.Path(50))
	e.components(g) // warm the free list's scratch
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

// TestEngineSplitBytesIndependentOfSize pins that a warm split of a
// connected graph copies no node list: it allocates the same bytes at
// n = 10⁴ and n = 4·10⁴. Copying the one component cost 336,912 B in 2
// allocations at n = 4·10⁴. The heap counters also see other goroutines
// of the test binary, which only add bytes, so the least of several
// single-split readings is the split's own cost.
func TestEngineSplitBytesIndependentOfSize(t *testing.T) {
	e := New(WithWorkers(1))
	bytesPerSplit := func(n int) uint64 {
		g := graph.RandomRegularish(n, 6, 43)
		e.components(g) // warm the free list's scratch
		least := uint64(math.MaxUint64)
		for range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if len(e.components(g)) != 1 {
				t.Fatalf("n=%d: want one component", n)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if small, big := bytesPerSplit(10_000), bytesPerSplit(40_000); small != big {
		t.Fatalf("warm split allocates %d B per run at n = 10⁴ and %d B at n = 4·10⁴, want equal", small, big)
	}
}

// TestEngineScratchFreeList pins the free list's bounds: it keeps at most
// workers scratches, hands back the ones it keeps, and never keeps one
// that served a graph above maxRetainedNodes.
func TestEngineScratchFreeList(t *testing.T) {
	e := New(WithWorkers(2))
	taken := []*core.Scratch{e.getScratch(), e.getScratch(), e.getScratch()}
	for _, s := range taken {
		e.putScratch(s)
	}
	if len(e.scratch) != 2 {
		t.Fatalf("free list holds %d scratches, want 2", len(e.scratch))
	}
	if s := e.getScratch(); s != taken[0] && s != taken[1] {
		t.Fatal("getScratch built a scratch while the free list held two")
	}
	big := e.getScratch()
	big.Components(graph.Path(maxRetainedNodes+1), nil)
	e.putScratch(big)
	for len(e.scratch) > 0 {
		if <-e.scratch == big {
			t.Fatal("free list kept a scratch sized for an oversized graph")
		}
	}
}
