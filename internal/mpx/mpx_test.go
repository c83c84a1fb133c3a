package mpx

import (
	"context"
	"math"
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
	for _, eps := range []float64{0, -1, 2} {
		if _, err := CarveContext(context.Background(), g, nil, eps, rng, nil); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

// diameterBound is the empirical O(log n / eps) cap used in assertions: the
// whp bound 4·(2/eps)·ln n with slack for small n.
func diameterBound(n int, eps float64) int {
	return int(8*math.Log(float64(n)+2)/eps) + 8
}

func TestCarveInvariantsAcrossFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(150)},
		{"grid", graph.Grid(12, 12)},
		{"gnp", graph.ConnectedGnp(150, 0.03, 7)},
		{"expander", graph.RandomRegularish(128, 4, 8)},
		{"tree", graph.BinaryTree(127)},
		{"subdivided", graph.SubdividedExpander(12, 4, 4, 5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			for _, eps := range []float64{0.5, 0.25} {
				c, err := CarveContext(context.Background(), tt.g, nil, eps, rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Strong carving: non-adjacent, connected clusters with
				// bounded induced diameter, dead fraction <= eps.
				if err := cluster.CheckCarving(tt.g, nil, c, eps, diameterBound(tt.g.N(), eps)); err != nil {
					t.Fatalf("eps=%v: %v", eps, err)
				}
			}
		})
	}
}

func TestCarveOnSubset(t *testing.T) {
	g := graph.Path(30)
	nodes := []int{0, 1, 2, 3, 4, 5, 20, 21, 22}
	rng := rand.New(rand.NewSource(2))
	c, err := CarveContext(context.Background(), g, nodes, 0.5, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 6; v < 20; v++ {
		if c.Assign[v] != cluster.Unclustered {
			t.Fatalf("node %d outside subset assigned", v)
		}
	}
	alive := make([]bool, g.N())
	for _, v := range nodes {
		alive[v] = true
	}
	if err := cluster.CheckCarving(g, alive, c, 0.5, diameterBound(len(nodes), 0.5)); err != nil {
		t.Fatal(err)
	}
}

func TestCarveChargesRaceRounds(t *testing.T) {
	g := graph.Grid(10, 10)
	m := rounds.NewMeter()
	rng := rand.New(rand.NewSource(4))
	if _, err := CarveContext(context.Background(), g, nil, 0.5, rng, m); err != nil {
		t.Fatal(err)
	}
	if m.Component("mpx/race") == 0 {
		t.Fatalf("no race rounds charged: %s", m)
	}
}

func TestCarveSeedReproducible(t *testing.T) {
	g := graph.ConnectedGnp(100, 0.04, 6)
	a, err := CarveContext(context.Background(), g, nil, 0.5, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CarveContext(context.Background(), g, nil, 0.5, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("same seed diverged at node %d", v)
		}
	}
}

func TestDecomposeValidStrong(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(10, 10)},
		{"gnp", graph.ConnectedGnp(120, 0.04, 23)},
		{"expander", graph.RandomRegularish(100, 4, 31)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			// The registration runs CarveContext through the standard
			// iteration, core.DecomposeContext.
			alg, err := registry.Lookup("mpx")
			if err != nil {
				t.Fatal(err)
			}
			d, err := alg.Decompose(context.Background(), tt.g, &registry.RunOptions{Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.CheckDecomposition(tt.g, d, diameterBound(tt.g.N(), 0.5), true); err != nil {
				t.Fatal(err)
			}
			if d.Colors > 6*log2ceil(tt.g.N()) {
				t.Fatalf("used %d colors for n=%d", d.Colors, tt.g.N())
			}
		})
	}
}

// The corridor rule must keep each surviving cluster connected: verified by
// CheckCarving above, but this test additionally verifies the sharper
// property that each survivor's shortest path to its center survives.
func TestCarveCentersSurvive(t *testing.T) {
	g := graph.ConnectedGnp(150, 0.03, 77)
	rng := rand.New(rand.NewSource(10))
	c, err := CarveContext(context.Background(), g, nil, 0.5, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range c.Centers {
		if c.Assign[u] != i {
			t.Fatalf("center %d of cluster %d has assignment %d", u, i, c.Assign[u])
		}
	}
}

func log2ceil(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}
