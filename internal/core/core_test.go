package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
)

// thm22DiameterBound computes the Theorem 2.1/2.2 strong diameter guarantee
// 2R + O(log n/eps) using the weak carver's worst-case depth bound.
func thm22DiameterBound(n int, eps float64) int {
	p := rg.ParamsFor(n, eps/(2*float64(log2ceil(n))))
	return 2*p.MaxDepth + 2*shellWindow(n, eps) + 2
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":       graph.Path(120),
		"cycle":      graph.Cycle(90),
		"grid":       graph.Grid(11, 11),
		"tree":       graph.BinaryTree(127),
		"star":       graph.Star(64),
		"complete":   graph.Complete(32),
		"gnp":        graph.ConnectedGnp(130, 0.04, 3),
		"expander":   graph.RandomRegularish(96, 4, 5),
		"subdivided": graph.SubdividedExpander(12, 4, 4, 7),
		"clusters":   graph.ClusterGraph(4, 16, 0.4, 9),
		"union":      graph.DisjointUnion(graph.Path(30), graph.Grid(5, 5), graph.Star(12)),
	}
}

func TestStrongCarveRejectsBadEps(t *testing.T) {
	g := graph.Path(4)
	for _, eps := range []float64{0, -0.1, 1.2} {
		if _, err := CarveRGContext(context.Background(), g, nil, eps, nil); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

func TestStrongCarveEmpty(t *testing.T) {
	g, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := CarveRGContext(context.Background(), g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 0 {
		t.Fatalf("empty graph gave %d clusters", c.K)
	}
}

func TestCarveRGInvariantsAcrossFamilies(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			for _, eps := range []float64{0.5, 0.25} {
				c, err := CarveRGContext(context.Background(), g, nil, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				bound := thm22DiameterBound(g.N(), eps)
				if err := cluster.CheckCarving(g, nil, c, eps, bound); err != nil {
					t.Fatalf("eps=%v: %v", eps, err)
				}
			}
		})
	}
}

func TestCarveRGIsDeterministic(t *testing.T) {
	g := graph.ConnectedGnp(110, 0.04, 21)
	a, err := CarveRGContext(context.Background(), g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CarveRGContext(context.Background(), g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func TestCarveRGOnSubset(t *testing.T) {
	g := graph.Grid(10, 10)
	var nodes []int
	for v := 0; v < 50; v++ {
		nodes = append(nodes, v)
	}
	c, err := CarveRGContext(context.Background(), g, nodes, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 50; v < 100; v++ {
		if c.Assign[v] != cluster.Unclustered {
			t.Fatalf("node %d outside subset assigned", v)
		}
	}
	alive := make([]bool, g.N())
	for _, v := range nodes {
		alive[v] = true
	}
	if err := cluster.CheckCarving(g, alive, c, 0.5, thm22DiameterBound(50, 0.5)); err != nil {
		t.Fatal(err)
	}
}

func TestStrongCarveChargesAllTerms(t *testing.T) {
	g := graph.ConnectedGnp(120, 0.05, 8)
	m := rounds.NewMeter()
	if _, err := CarveRGContext(context.Background(), g, nil, 0.5, m); err != nil {
		t.Fatal(err)
	}
	// The three terms of Theorem 2.1: A's own rounds, Steiner-tree
	// gathering, and the ball-growing BFS.
	if m.Component("rg/propose") == 0 {
		t.Fatalf("weak carver charged nothing: %s", m)
	}
	if m.Component("thm21/gather") == 0 {
		t.Fatalf("no gather rounds: %s", m)
	}
	if m.Component("thm21/bfs") == 0 {
		t.Fatalf("no bfs rounds: %s", m)
	}
}

func TestDecomposeRGValid(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			d, err := DecomposeRGContext(context.Background(), g, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound := thm22DiameterBound(g.N(), 0.5)
			if err := cluster.CheckDecomposition(g, d, bound, true); err != nil {
				t.Fatal(err)
			}
			if d.Colors > log2ceil(g.N())+2 {
				t.Fatalf("%d colors for n=%d (want <= log n + 2)", d.Colors, g.N())
			}
		})
	}
}

func TestDecomposeHalvesEachIteration(t *testing.T) {
	// With a deterministic carver at eps=1/2, iteration i clusters at least
	// half the remainder, so color class sizes certify the halving.
	g := graph.Grid(12, 12)
	d, err := DecomposeRGContext(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	perColor := make([]int, d.Colors)
	for v := 0; v < g.N(); v++ {
		perColor[d.NodeColor(v)]++
	}
	remaining := g.N()
	for col, cnt := range perColor {
		if 2*cnt < remaining-1 {
			t.Fatalf("color %d clustered %d of %d remaining", col, cnt, remaining)
		}
		remaining -= cnt
	}
}

func log2ceilTestHelper(n int) int { return log2ceil(n) }

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceilTestHelper(n); got != want {
			t.Fatalf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestShellWindowShrinksWithEps(t *testing.T) {
	if shellWindow(1000, 0.5) >= shellWindow(1000, 0.1) {
		t.Fatal("window must grow as eps shrinks")
	}
	if shellWindow(10, 0.5) < 2 {
		t.Fatal("window floor violated")
	}
}

// The transformation's diameter guarantee should be *measured* to hold with
// realized (not worst-case) R: the strong diameter of every cluster is at
// most 2·(realized weak depth) + the shell window.
func TestStrongCarveRealizedDiameter(t *testing.T) {
	g := graph.ConnectedGnp(150, 0.03, 12)
	eps := 0.5
	c, err := CarveRGContext(context.Background(), g, nil, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := cluster.MaxStrongDiameter(g, c.Members()); d < 0 {
		t.Fatal("disconnected cluster")
	} else {
		// Realized diameters should be far below the worst-case bound on a
		// benign random graph: sanity threshold log² n scale.
		loose := 4 * log2ceil(g.N()) * log2ceil(g.N()) * int(math.Ceil(1/eps))
		if d > loose {
			t.Fatalf("realized diameter %d suspiciously large (> %d)", d, loose)
		}
	}
}

// TestDecomposeContextConvergenceGuard pins the colour loop's guard: a
// carver that never clusters a node fails the run with the "did not
// converge" error after exactly 4·(⌈log₂ n⌉ + 2) + 1 calls, instead of
// looping forever.
func TestDecomposeContextConvergenceGuard(t *testing.T) {
	for _, tc := range []struct {
		g     *graph.Graph
		calls int
	}{
		{graph.Path(100), 4*(7+2) + 1},
		{graph.Grid(30, 30), 4*(10+2) + 1},
	} {
		calls := 0
		idle := func(_ context.Context, g *graph.Graph, _ []int, _ float64, _ *rounds.Meter) (*cluster.Carving, error) {
			calls++
			assign := make([]int, g.N())
			for v := range assign {
				assign[v] = cluster.Unclustered
			}
			return &cluster.Carving{Assign: assign}, nil
		}
		_, err := DecomposeContext(context.Background(), tc.g, idle, nil)
		if err == nil || !strings.Contains(err.Error(), "did not converge") {
			t.Fatalf("n=%d: got error %v, want a convergence failure", tc.g.N(), err)
		}
		if calls != tc.calls {
			t.Fatalf("n=%d: carver called %d times, want %d", tc.g.N(), calls, tc.calls)
		}
	}
}
