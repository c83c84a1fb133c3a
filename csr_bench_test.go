// BenchmarkCSR* is the substrate benchmark suite: it measures the graph
// core (build, parse, traverse, subgraph) and the Engine decompose paths
// that everything else in the repo stands on. Run it with
// `go test -run '^$' -bench BenchmarkCSR -benchmem .`.
package strongdecomp

import (
	"bytes"
	"context"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// csrBenchGraph is the shared multi-component workload: structurally
// different components (random, cycle, grid, tree), so engine runs
// exercise the per-component split, remap and merge paths rather than
// the single-component fast path.
func csrBenchGraph() *graph.Graph {
	return graph.DisjointUnion(
		graph.ConnectedGnp(512, 0.01, 7),
		graph.Cycle(257),
		graph.Grid(16, 16),
		graph.RandomTree(255, 3),
	)
}

// TestEngineDecomposeMultiComponentWarmAllocs bounds a warm Engine.Run
// decompose of csrBenchGraph at one worker: the split, per-component
// remap and merge path that TestEngineRunWarmAllocs (one component) does
// not reach. It measured 320 allocations, against 13,320 before the CSR
// graph core.
func TestEngineDecomposeMultiComponentWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are nondeterministic")
	}
	g := csrBenchGraph()
	e := NewEngine(WithWorkers(1))
	run := func() {
		if _, err := engineDecompose(context.Background(), e, g, 42); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const ceiling = 400
	if allocs := testing.AllocsPerRun(5, run); allocs > ceiling {
		t.Fatalf("warm multi-component decompose allocates %v per run, want <= %d", allocs, ceiling)
	}
}

func BenchmarkCSR_BuildConnectedGnp(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.ConnectedGnp(2048, 4.0/2048, 7)
		if g.N() != 2048 {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkCSR_ParseEdgeList(b *testing.B) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, csrBenchGraph(), graphio.FormatEdgeList); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphio.Read(bytes.NewReader(data), graphio.FormatEdgeList); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSR_ParseMETIS(b *testing.B) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, csrBenchGraph(), graphio.FormatMETIS); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphio.Read(bytes.NewReader(data), graphio.FormatMETIS); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSR_BFS(b *testing.B) {
	g := csrBenchGraph()
	dist := make([]int, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BFS(g, nil, []int{0}, dist)
	}
}

func BenchmarkCSR_Components(b *testing.B) {
	g := csrBenchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(graph.Components(g, nil)); got != 4 {
			b.Fatalf("want 4 components, got %d", got)
		}
	}
}

func BenchmarkCSR_InducedSubgraph(b *testing.B) {
	g := csrBenchGraph()
	comps := graph.Components(g, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, comp := range comps {
			sub, _ := graph.InducedSubgraph(g, comp)
			if sub.N() != len(comp) {
				b.Fatal("bad subgraph")
			}
		}
	}
}

func BenchmarkCSR_IsConnected(b *testing.B) {
	g := csrBenchGraph()
	comps := graph.Components(g, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, comp := range comps {
			if !graph.IsConnected(g, comp) {
				b.Fatal("component disconnected")
			}
		}
	}
}

// BenchmarkCSR_EngineDecompose is the acceptance-criteria path: the Engine's
// multi-component decompose (components → per-component InducedSubgraph →
// construction → merge). Workers pinned to 1 so allocs/op is scheduling
// independent.
func BenchmarkCSR_EngineDecompose(b *testing.B) {
	g := csrBenchGraph()
	e := NewEngine(WithWorkers(1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engineDecompose(ctx, e, g, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSR_EngineCarve(b *testing.B) {
	g := csrBenchGraph()
	e := NewEngine(WithWorkers(1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engineCarve(ctx, e, g, 0.5, 42); err != nil {
			b.Fatal(err)
		}
	}
}
