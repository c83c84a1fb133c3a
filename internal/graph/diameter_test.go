package graph

import "testing"

// exactDiameter is the brute-force reference: max eccentricity over all
// nodes within their own components.
func exactDiameter(g *Graph) int {
	dist := make([]int, g.N())
	diam := 0
	for v := 0; v < g.N(); v++ {
		order := maskedBFS(g, nil, []int{v}, dist)
		if d := dist[order[len(order)-1]]; d > diam {
			diam = d
		}
	}
	return diam
}

func TestScratchDiameterApproxExactFamilies(t *testing.T) {
	// Families where the 2-sweep is known to land exactly on the diameter:
	// a BFS from any node of a path, cycle, grid, star, or tree reaches a
	// peripheral node.
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path-10", Path(10), 9},
		{"path-1", Path(1), 0},
		{"cycle-10", Cycle(10), 5},
		{"cycle-7", Cycle(7), 3},
		{"grid-4x5", Grid(4, 5), 7},
		{"star-8", Star(8), 2},
		{"complete-6", Complete(6), 1},
		{"union", DisjointUnion(Path(10), Cycle(6), Path(1)), 9},
	}
	s := NewScratch()
	for _, tc := range cases {
		if got := s.DiameterApprox(tc.g); got != tc.want {
			t.Errorf("%s: DiameterApprox = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestScratchDiameterApproxBounds(t *testing.T) {
	// On arbitrary graphs the 2-sweep result is a lower bound on the true
	// diameter and never below half of it.
	s := NewScratch()
	for seed := int64(0); seed < 8; seed++ {
		g := Gnp(80, 0.04, seed)
		got := s.DiameterApprox(g)
		exact := exactDiameter(g)
		if got > exact {
			t.Fatalf("seed %d: approx %d exceeds exact %d", seed, got, exact)
		}
		if 2*got < exact {
			t.Fatalf("seed %d: approx %d below half of exact %d", seed, got, exact)
		}
	}
}

// TestScratchDiameterApproxAliveMask runs the 2-sweep on the subgraphs
// of a path that its alive nodes induce.
func TestScratchDiameterApproxAliveMask(t *testing.T) {
	g := Path(10)
	s := NewScratch()
	sub, _ := InducedSubgraph(g, []int{0, 1, 2, 3, 4})
	if got := s.DiameterApprox(sub); got != 4 {
		t.Fatalf("masked path: DiameterApprox = %d, want 4", got)
	}
	// Splitting the path into two alive runs makes the subgraph
	// disconnected; the max over components must win.
	sub, _ = InducedSubgraph(g, []int{0, 1, 2, 3, 4, 7, 8, 9})
	if got := s.DiameterApprox(sub); got != 4 {
		t.Fatalf("split path: DiameterApprox = %d, want 4", got)
	}
}

func TestScratchDiameterApproxInterleavedWithOtherScratchUse(t *testing.T) {
	// The sweep must tolerate the stamps and values other scratch users
	// leave behind (StrongDiameter's balls run over its induced subgraph).
	g := Grid(6, 6)
	s := NewScratch()
	nodes := make([]int, g.N())
	for v := range nodes {
		nodes[v] = v
	}
	for i := 0; i < 3; i++ {
		if d := s.StrongDiameter(g, nodes); d != 10 {
			t.Fatalf("StrongDiameter = %d, want 10", d)
		}
		if d := s.DiameterApprox(g); d != 10 {
			t.Fatalf("DiameterApprox = %d, want 10", d)
		}
	}
}

func TestScratchDiameterApproxZeroAllocSteadyState(t *testing.T) {
	g := DisjointUnion(ConnectedGnp(256, 0.05, 1), Grid(8, 8))
	s := NewScratch()
	s.DiameterApprox(g) // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		s.DiameterApprox(g)
	})
	if allocs != 0 {
		t.Fatalf("scratch DiameterApprox allocates %v per run, want 0", allocs)
	}
}
