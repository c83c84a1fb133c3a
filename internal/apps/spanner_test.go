package apps

import (
	"context"
	"errors"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// spannerGraph rebuilds the spanner as a standalone graph on g's nodes.
func spannerGraph(t *testing.T, n int, sp *Spanner) *graph.Graph {
	t.Helper()
	out, err := graph.FromEdges(n, sp.Edges)
	if err != nil {
		t.Fatalf("spanner edges do not form a graph: %v", err)
	}
	return out
}

func TestSpannerAcrossFamilies(t *testing.T) {
	tests := map[string]*graph.Graph{
		"path":  graph.Path(200),
		"cycle": graph.Cycle(256),
		"grid":  graph.Grid(12, 12),
		"gnp":   graph.ConnectedGnp(150, 0.04, 3),
		"union": graph.DisjointUnion(graph.Path(40), graph.Cycle(30)),
	}
	for name, g := range tests {
		t.Run(name, func(t *testing.T) {
			d := decompose(t, g)
			m := rounds.NewMeter()
			sp, err := BuildSpannerContext(context.Background(), g, d, diameters(t, g, d), m)
			if err != nil {
				t.Fatal(err)
			}
			if sp.TreeEdges+sp.CrossEdges != len(sp.Edges) {
				t.Fatalf("edge accounting: %d tree + %d cross != %d total",
					sp.TreeEdges, sp.CrossEdges, len(sp.Edges))
			}
			// Every spanner edge must exist in g.
			have := make(map[[2]int]bool, g.M())
			for u := 0; u < g.N(); u++ {
				for _, w := range g.Neighbors(u) {
					if u < w {
						have[[2]int{u, w}] = true
					}
				}
			}
			for _, e := range sp.Edges {
				if !have[e] {
					t.Fatalf("spanner edge %v not in g", e)
				}
			}
			// The spanner preserves connectivity: same components as g.
			sg := spannerGraph(t, g.N(), sp)
			if got, want := len(graph.Components(sg, nil)), len(graph.Components(g, nil)); got != want {
				t.Fatalf("spanner has %d components, graph has %d", got, want)
			}
			if m.Component("apps/spanner") == 0 {
				t.Fatal("no schedule cost charged")
			}
		})
	}
}

func TestSpannerSparserThanDenseGraph(t *testing.T) {
	// On a dense graph the spanner must keep at most (n − k) tree edges
	// plus one edge per cluster pair — far below the full edge set.
	g := graph.Complete(40)
	d := decompose(t, g)
	sp, err := BuildSpannerContext(context.Background(), g, d, diameters(t, g, d), nil)
	if err != nil {
		t.Fatal(err)
	}
	bound := g.N() - 1 + d.K*(d.K-1)/2
	if len(sp.Edges) > bound {
		t.Fatalf("spanner keeps %d edges, bound %d (n=%d k=%d)", len(sp.Edges), bound, g.N(), d.K)
	}
	if len(sp.Edges) >= g.M() && d.K > 1 {
		t.Fatalf("spanner (%d edges) not sparser than graph (%d edges)", len(sp.Edges), g.M())
	}
}

func TestSpannerRejectsSizeMismatch(t *testing.T) {
	g := graph.Path(5)
	d := &cluster.Decomposition{Assign: []int{0}, Color: []int{0}, K: 1, Colors: 1}
	if _, err := BuildSpannerContext(context.Background(), g, d, nil, nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestContextVariantsHonorCancellation(t *testing.T) {
	g := graph.Grid(10, 10)
	d := decompose(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MISContext(ctx, g, d, diameters(t, g, d), nil); !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("MISContext: err = %v, want ErrCanceled", err)
	}
	if _, err := ColorGraphContext(ctx, g, d, diameters(t, g, d), nil); !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("ColorGraphContext: err = %v, want ErrCanceled", err)
	}
	if _, err := BuildSpannerContext(ctx, g, d, diameters(t, g, d), nil); !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("BuildSpannerContext: err = %v, want ErrCanceled", err)
	}
}
