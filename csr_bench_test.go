// BenchmarkCSR* is the substrate benchmark suite behind BENCH_pr3.json: it
// measures the graph core (build, parse, traverse, subgraph) and the Engine
// decompose paths that everything else in the repo stands on. cmd/bench runs
// the same workloads through testing.Benchmark and emits the JSON baseline
// artifact; see EXPERIMENTS.md for how to regenerate and read it.
package strongdecomp

import (
	"bytes"
	"context"
	"testing"

	"strongdecomp/internal/bench"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// csrBenchGraph is the shared multi-component workload — the same graph
// cmd/bench measures for BENCH_pr3.json, so the interactive numbers and
// the committed artifact stay comparable.
func csrBenchGraph() *graph.Graph {
	return bench.CSRWorkloadGraph()
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
