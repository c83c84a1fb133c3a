package ls

import (
	"context"
	"math/rand"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

func TestCarveRejectsBadEps(t *testing.T) {
	g := graph.Path(4)
	rng := rand.New(rand.NewSource(1))
	for _, eps := range []float64{0, -1, 1.01} {
		if _, err := CarveContext(context.Background(), g, nil, eps, rng, nil); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

func TestCarveEmptySubset(t *testing.T) {
	g := graph.Path(4)
	rng := rand.New(rand.NewSource(1))
	c, err := CarveContext(context.Background(), g, []int{}, 0.5, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 0 {
		t.Fatalf("empty subset produced %d clusters", c.K)
	}
}

func TestCarveInvariantsAcrossFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(120)},
		{"grid", graph.Grid(11, 11)},
		{"gnp", graph.ConnectedGnp(150, 0.03, 7)},
		{"expander", graph.RandomRegularish(100, 4, 8)},
		{"tree", graph.BinaryTree(100)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for _, eps := range []float64{0.5, 0.25} {
				c, err := CarveContext(context.Background(), tt.g, nil, eps, rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				n := len(tt.g.Neighbors(0)) // silence unused in case of edits
				_ = n
				maxDepth := Radius(tt.g.N(), eps/2)
				// Congestion: the pipelined floods reuse BFS trees; each
				// cluster contributes one tree, and a relay can serve many
				// trees, so only validate against a generous bound.
				if err := cluster.CheckWeakCarving(tt.g, nil, c, eps, maxDepth, -1); err != nil {
					t.Fatalf("eps=%v: %v", eps, err)
				}
				// Weak diameter must respect 2*Radius.
				if d := cluster.MaxWeakDiameter(tt.g, c.Members()); d > 2*maxDepth {
					t.Fatalf("weak diameter %d exceeds %d", d, 2*maxDepth)
				}
			}
		})
	}
}

func TestCarveChargesRounds(t *testing.T) {
	g := graph.Grid(8, 8)
	m := rounds.NewMeter()
	rng := rand.New(rand.NewSource(3))
	if _, err := CarveContext(context.Background(), g, nil, 0.5, rng, m); err != nil {
		t.Fatal(err)
	}
	if m.Component("ls/flood") == 0 {
		t.Fatalf("no flood rounds charged: %s", m)
	}
}

func TestCarveSeedReproducible(t *testing.T) {
	g := graph.ConnectedGnp(80, 0.05, 5)
	a, err := CarveContext(context.Background(), g, nil, 0.5, rand.New(rand.NewSource(11)), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CarveContext(context.Background(), g, nil, 0.5, rand.New(rand.NewSource(11)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("same seed diverged at node %d", v)
		}
	}
}

func TestDecomposeValid(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(10, 10)},
		{"gnp", graph.ConnectedGnp(120, 0.04, 13)},
		{"path", graph.Path(100)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			// The registration runs CarveContext through the standard
			// iteration, core.DecomposeContext.
			alg, err := registry.Lookup("linial-saks")
			if err != nil {
				t.Fatal(err)
			}
			d, err := alg.Decompose(context.Background(), tt.g, &registry.RunOptions{Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			// Weak diameter bound: 2 * Radius at eps/2 = 1/4.
			bound := 2 * Radius(tt.g.N(), 0.25)
			if err := cluster.CheckDecomposition(tt.g, d, bound, false); err != nil {
				t.Fatal(err)
			}
			if d.Colors > 6*log2ceil(tt.g.N()) {
				t.Fatalf("used %d colors for n=%d", d.Colors, tt.g.N())
			}
		})
	}
}

func TestRadiusGrowsWithNAndShrinkingP(t *testing.T) {
	if Radius(1024, 0.25) <= Radius(64, 0.25) {
		t.Fatal("radius not monotone in n")
	}
	if Radius(1024, 0.1) <= Radius(1024, 0.5) {
		t.Fatal("radius not monotone in 1/p")
	}
	if Radius(1, 0.25) != 1 {
		t.Fatalf("Radius(1) = %d", Radius(1, 0.25))
	}
}

func log2ceil(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}
