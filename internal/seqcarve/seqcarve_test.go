package seqcarve

import (
	"context"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

func TestCarveInvariants(t *testing.T) {
	tests := map[string]*graph.Graph{
		"path":     graph.Path(200),
		"grid":     graph.Grid(12, 12),
		"gnp":      graph.ConnectedGnp(150, 0.03, 3),
		"tree":     graph.BinaryTree(127),
		"complete": graph.Complete(40),
		"union":    graph.DisjointUnion(graph.Path(40), graph.Star(20)),
	}
	for name, g := range tests {
		t.Run(name, func(t *testing.T) {
			c, err := CarveContext(context.Background(), g, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.CheckCarving(g, nil, c, 0.5, 2*log2ceil(g.N())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCarveRoundsScaleWithClusterCount(t *testing.T) {
	// The sequential baseline pays per cluster; a long path (many balls)
	// must charge far more coordination rounds than a complete graph (one
	// ball).
	mPath, mComplete := rounds.NewMeter(), rounds.NewMeter()
	ctx := context.Background()
	if _, err := CarveContext(ctx, graph.Path(400), nil, mPath); err != nil {
		t.Fatal(err)
	}
	if _, err := CarveContext(ctx, graph.Complete(400), nil, mComplete); err != nil {
		t.Fatal(err)
	}
	if mPath.Rounds() <= mComplete.Rounds() {
		t.Fatalf("sequential baseline should be slow on many clusters: path=%d complete=%d",
			mPath.Rounds(), mComplete.Rounds())
	}
}

func TestDecomposeValid(t *testing.T) {
	g := graph.ConnectedGnp(140, 0.04, 7)
	alg, err := registry.Lookup("sequential")
	if err != nil {
		t.Fatal(err)
	}
	d, err := alg.Decompose(context.Background(), g, &registry.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckDecomposition(g, d, 2*log2ceil(g.N()), true); err != nil {
		t.Fatal(err)
	}
	if d.Colors > log2ceil(g.N())+2 {
		t.Fatalf("%d colors", d.Colors)
	}
}

func TestCarveSubsetOnly(t *testing.T) {
	g := graph.Path(30)
	c, err := CarveContext(context.Background(), g, []int{0, 1, 2, 3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 5; v < 30; v++ {
		if c.Assign[v] != cluster.Unclustered {
			t.Fatalf("node %d outside subset assigned", v)
		}
	}
}

func TestABCPTransformProducesValidCarving(t *testing.T) {
	g := graph.Grid(8, 8)
	m := rounds.NewMeter()
	c, stats, err := ABCPTransform(g, func(p *graph.Graph, pm *rounds.Meter) (*cluster.Decomposition, error) {
		return core.DecomposeRGContext(context.Background(), p, pm)
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckCarving(g, nil, c, 0.5, 2*log2ceil(g.N())); err != nil {
		t.Fatal(err)
	}
	if stats.MaxMessageBits == 0 {
		t.Fatal("no gathered topology measured")
	}
	// The point of experiment E5: gathered-topology messages dwarf the
	// CONGEST budget of O(log n) bits.
	if stats.MaxMessageBits <= int64(4*log2ceil(g.N())) {
		t.Fatalf("ABCP message size %d bits unexpectedly small", stats.MaxMessageBits)
	}
	if m.Component("abcp/power") == 0 || m.Component("abcp/gather") == 0 {
		t.Fatalf("missing round components: %s", m)
	}
}

func TestABCPTransformEmptyGraph(t *testing.T) {
	g, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ABCPTransform(g, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog2CeilLocal(t *testing.T) {
	if log2ceil(1) != 1 || log2ceil(16) != 4 || log2ceil(17) != 5 {
		t.Fatal("log2ceil broken")
	}
}
