package core

import (
	"context"
	"testing"
	"testing/quick"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

func TestCarveEdgesRGRejectsBadEps(t *testing.T) {
	g := graph.Path(4)
	for _, eps := range []float64{0, -0.5, 1.5} {
		if _, err := CarveEdgesRGContext(context.Background(), g, nil, eps, nil); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

func TestCarveEdgesRGEmptyAndIsolated(t *testing.T) {
	g, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := CarveEdgesRGContext(context.Background(), g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ec.K != 0 {
		t.Fatalf("empty graph gave %d clusters", ec.K)
	}
	// Edgeless graph: every node its own cluster, nothing cut.
	iso, err := graph.NewBuilder(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	ec, err = CarveEdgesRGContext(context.Background(), iso, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ec.K != 5 || len(ec.Cut) != 0 {
		t.Fatalf("isolated nodes: k=%d cut=%d", ec.K, len(ec.Cut))
	}
}

func TestCarveEdgesRGInvariantsAcrossFamilies(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			for _, eps := range []float64{0.5, 0.25} {
				ec, err := CarveEdgesRGContext(context.Background(), g, nil, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := cluster.CheckEdgeCarving(g, nil, ec.Assign, ec.K, ec.Cut, eps, -1); err != nil {
					t.Fatalf("eps=%v: %v", eps, err)
				}
			}
		})
	}
}

func TestCarveEdgesRGKeepsEveryNode(t *testing.T) {
	g := graph.ConnectedGnp(150, 0.03, 9)
	ec, err := CarveEdgesRGContext(context.Background(), g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, cl := range ec.Assign {
		if cl == cluster.Unclustered {
			t.Fatalf("edge version removed node %d", v)
		}
	}
}

func TestCarveEdgesRGDeterministic(t *testing.T) {
	g := graph.Cycle(300)
	a, err := CarveEdgesRGContext(context.Background(), g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CarveEdgesRGContext(context.Background(), g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cut) != len(b.Cut) || a.K != b.K {
		t.Fatalf("nondeterministic: cuts %d/%d clusters %d/%d", len(a.Cut), len(b.Cut), a.K, b.K)
	}
}

func TestCarveEdgesRGOnSubset(t *testing.T) {
	g := graph.Path(30)
	nodes := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ec, err := CarveEdgesRGContext(context.Background(), g, nodes, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 8; v < 30; v++ {
		if ec.Assign[v] != cluster.Unclustered {
			t.Fatalf("node %d outside subset assigned", v)
		}
	}
	if err := cluster.CheckEdgeCarving(g, nodes, ec.Assign, ec.K, ec.Cut, 0.5, -1); err != nil {
		t.Fatal(err)
	}
}

func TestCarveEdgesRGChargesRounds(t *testing.T) {
	g := graph.Cycle(200)
	m := rounds.NewMeter()
	if _, err := CarveEdgesRGContext(context.Background(), g, nil, 0.5, m); err != nil {
		t.Fatal(err)
	}
	if m.Component("thm21/bfs") == 0 && m.Component("rg/propose") == 0 {
		t.Fatalf("no rounds charged: %s", m)
	}
}

func TestPropertyCarveEdgesRG(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := 20 + int(nRaw)%100
		g := graph.ConnectedGnp(n, 0.05, int64(seed))
		ec, err := CarveEdgesRGContext(context.Background(), g, nil, 0.5, nil)
		if err != nil {
			return false
		}
		return cluster.CheckEdgeCarving(g, nil, ec.Assign, ec.K, ec.Cut, 0.5, -1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// On a long cycle the edge version must behave like the node version shape-
// wise: bounded-diameter clusters with a small cut.
func TestCarveEdgesRGCycleShape(t *testing.T) {
	g := graph.Cycle(2048)
	eps := 0.5
	ec, err := CarveEdgesRGContext(context.Background(), g, nil, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CheckEdgeCarving(g, nil, ec.Assign, ec.K, ec.Cut, eps, -1); err != nil {
		t.Fatal(err)
	}
	if len(ec.Cut) == 0 {
		t.Fatal("cycle carving cut nothing — clusters cannot all be bounded")
	}
}
