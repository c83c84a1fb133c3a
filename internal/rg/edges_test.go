package rg

import (
	"slices"
	"testing"
	"testing/quick"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

// checkEdgeInvariants verifies the weak edge-carving contract: all nodes
// clustered, cut fraction <= eps, no remaining inter-cluster edge, trees
// valid with every member a tree node.
func checkEdgeInvariants(t *testing.T, g *graph.Graph, eps float64) *EdgeCarving {
	t.Helper()
	ec, err := CarveEdges(g, nil, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckEdgeCut(g, nil, ec.Carving.Assign, ec.Carving.K, ec.Cut, eps); err != nil {
		// The weak version does not promise connectivity, so tolerate only
		// the "disconnected" failure and re-check the rest by hand.
		t.Fatalf("eps=%v: %v", eps, err)
	}
	for cl, tr := range ec.Carving.Trees {
		if tr == nil {
			t.Fatalf("cluster %d missing tree", cl)
		}
		if err := tr.Validate(g); err != nil {
			t.Fatalf("cluster %d: %v", cl, err)
		}
	}
	for v, cl := range ec.Carving.Assign {
		if cl == cluster.Unclustered {
			t.Fatalf("edge version killed node %d", v)
		}
		if !slices.Contains(ec.Carving.Trees[cl].Nodes, v) {
			t.Fatalf("member %d of cluster %d not in tree", v, cl)
		}
	}
	return ec
}

func TestCarveEdgesRejectsBadEps(t *testing.T) {
	g := graph.Path(4)
	for _, eps := range []float64{0, -1, 1.01} {
		if _, err := CarveEdges(g, nil, eps, nil); err != nil {
			continue
		}
		t.Fatalf("eps %v accepted", eps)
	}
}

func TestCarveEdgesInvariantsAcrossFamilies(t *testing.T) {
	tests := map[string]*graph.Graph{
		"path":       graph.Path(120),
		"cycle":      graph.Cycle(100),
		"grid":       graph.Grid(10, 10),
		"tree":       graph.BinaryTree(100),
		"complete":   graph.Complete(32),
		"gnp":        graph.ConnectedGnp(120, 0.04, 3),
		"expander":   graph.RandomRegularish(96, 4, 5),
		"subdivided": graph.SubdividedExpander(12, 4, 4, 7),
		"union":      graph.DisjointUnion(graph.Path(30), graph.Star(20)),
	}
	for name, g := range tests {
		t.Run(name, func(t *testing.T) {
			for _, eps := range []float64{0.5, 0.25} {
				checkEdgeInvariants(t, g, eps)
			}
		})
	}
}

func TestCarveEdgesNoNodeLoss(t *testing.T) {
	// The headline difference to the node version: on a star, the node
	// version may kill leaves; the edge version must keep every node.
	g := graph.Star(200)
	ec := checkEdgeInvariants(t, g, 0.25)
	if ec.Carving.DeadFraction(nil) != 0 {
		t.Fatalf("edge carving killed nodes: %f", ec.Carving.DeadFraction(nil))
	}
}

func TestCarveEdgesDeterministic(t *testing.T) {
	g := graph.ConnectedGnp(100, 0.05, 11)
	a, err := CarveEdges(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CarveEdges(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cut) != len(b.Cut) {
		t.Fatalf("cut sizes differ: %d vs %d", len(a.Cut), len(b.Cut))
	}
	for v := range a.Carving.Assign {
		if a.Carving.Assign[v] != b.Carving.Assign[v] {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func TestCarveEdgesChargesRounds(t *testing.T) {
	g := graph.Grid(9, 9)
	m := rounds.NewMeter()
	if _, err := CarveEdges(g, nil, 0.5, m); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

func TestPropertyCarveEdgesBudget(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := 20 + int(nRaw)%80
		g := graph.ConnectedGnp(n, 0.06, int64(seed))
		ec, err := CarveEdges(g, nil, 0.5, nil)
		if err != nil {
			return false
		}
		return cluster.CheckEdgeCut(g, nil, ec.Carving.Assign, ec.Carving.K, ec.Cut, 0.5) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
