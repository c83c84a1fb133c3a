package core

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
)

// recordingWeak wraps rg.Carve and records the node set of every call.
func recordingWeak(calls *[][]int) WeakCarver {
	return func(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
		*calls = append(*calls, slices.Clone(nodes))
		return rg.Carve(g, nodes, eps, m)
	}
}

// TestStrongCarveSplitsUnlessConnected pins where the first Theorem 2.1
// iteration gets its components: a graph the context vouches for is taken
// whole, and any other set, above all a disconnected one, is still split,
// so every weak-carver call sees one connected component. Both ways give
// the same carving.
func TestStrongCarveSplitsUnlessConnected(t *testing.T) {
	union := graph.DisjointUnion(graph.Grid(12, 12), graph.Cycle(80), graph.ConnectedGnp(150, 0.03, 2))
	connected := graph.ConnectedGnp(300, 0.02, 4)
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		ctx       context.Context
		firstSize int
	}{
		{"union, no hint", union, context.Background(), 144},
		{"union, hint names another graph", union, WithScratch(context.Background(), NewScratch(), connected), 144},
		{"connected, hint", connected, WithScratch(context.Background(), NewScratch(), connected), 300},
		{"connected, no hint", connected, context.Background(), 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls [][]int
			c, err := StrongCarveContext(tc.ctx, tc.g, nil, 0.5, recordingWeak(&calls), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) == 0 || len(calls[0]) != tc.firstSize {
				t.Fatalf("first weak call on %d nodes, want %d", len(calls[0]), tc.firstSize)
			}
			for i, s := range calls {
				if !graph.IsConnected(tc.g, s) {
					t.Fatalf("weak call %d ran on a disconnected set of %d nodes", i, len(s))
				}
			}
			want, err := StrongCarve(tc.g, nil, 0.5, rg.Carve, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(c.Assign, want.Assign) || !slices.Equal(c.Centers, want.Centers) {
				t.Fatal("carving differs from a plain StrongCarve")
			}
		})
	}
}

// TestStrongCarveWarmAllocs bounds a warm Theorem 2.1 carve of a
// 2000-node connected G(n, p) through a reused scratch with the
// connectivity hint, as the engine runs it. What remains is the carved
// set (nodes == nil), the carving with its assignment and centers, and
// the weak carver's output: it measured 11 allocations, against 64 when
// every call built its own masks, distance array, member lists and
// component lists.
func TestStrongCarveWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are nondeterministic")
	}
	g := graph.ConnectedGnp(2000, 6.0/2000, 5)
	ctx := WithScratch(context.Background(), NewScratch(), g)
	run := func() {
		if _, err := CarveRGContext(ctx, g, nil, 0.5, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// A collection mid-measurement would empty the carver's state pool
	// and count its rebuild; the ceiling is for the steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ceiling = 12
	if allocs := testing.AllocsPerRun(10, run); allocs > ceiling {
		t.Fatalf("warm StrongCarve allocates %v per run, want <= %d", allocs, ceiling)
	}
}

// BenchmarkStrongCarve runs the Theorem 2.2 carver (Theorem 2.1 over
// rg.Carve) at ε = 1/2, the first call of a decomposition, the way the
// engine runs it: a reused scratch and the connectivity hint. gnp is a
// 12000-node G(n, p); strip is one 1000×10 grid of decompose-strips, a
// high-diameter input. Run it with -benchmem to see the allocation.
func BenchmarkStrongCarve(b *testing.B) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.ConnectedGnp(12000, 6.0/12000, 11)},
		{"strip", graph.Grid(1000, 10)},
	} {
		b.Run(in.name, func(b *testing.B) {
			ctx := WithScratch(context.Background(), NewScratch(), in.g)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := CarveRGContext(ctx, in.g, nil, 0.5, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
