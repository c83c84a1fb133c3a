package rg

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func TestCarveRejectsBadEps(t *testing.T) {
	g := graph.Path(4)
	for _, eps := range []float64{0, -0.5, 1.5} {
		if _, err := Carve(g, nil, eps, nil); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
}

func TestCarveEmptyAndSingleton(t *testing.T) {
	g, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 0 {
		t.Fatalf("empty graph produced %d clusters", c.K)
	}

	g1 := graph.Path(1)
	c, err = Carve(g1, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 1 || c.Assign[0] != 0 {
		t.Fatalf("singleton carving wrong: %+v", c)
	}
}

// checkInvariants validates the full weak-carving contract for a run.
func checkInvariants(t *testing.T, g *graph.Graph, nodes []int, eps float64) *cluster.Carving {
	t.Helper()
	c, err := Carve(g, nodes, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if nodes == nil {
		nodes = allNodes(n)
	}
	var alive []bool
	if len(nodes) != n {
		alive = make([]bool, n)
		for _, v := range nodes {
			alive[v] = true
		}
	}
	p := ParamsFor(n, eps)
	if err := cluster.CheckWeakCarving(g, alive, c, eps, p.MaxDepth, p.Congestion); err != nil {
		t.Fatalf("n=%d eps=%v: %v", n, eps, err)
	}
	return c
}

func TestCarveInvariantsAcrossFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path100", graph.Path(100)},
		{"cycle64", graph.Cycle(64)},
		{"grid10x10", graph.Grid(10, 10)},
		{"tree127", graph.BinaryTree(127)},
		{"star50", graph.Star(50)},
		{"complete32", graph.Complete(32)},
		{"gnp", graph.ConnectedGnp(150, 0.03, 1)},
		{"expander", graph.RandomRegularish(128, 4, 2)},
		{"subdivided", graph.SubdividedExpander(16, 4, 4, 3)},
		{"clusters", graph.ClusterGraph(5, 12, 0.4, 4)},
		{"disconnected", graph.DisjointUnion(graph.Path(20), graph.Cycle(30), graph.Star(10))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, eps := range []float64{0.5, 0.25} {
				checkInvariants(t, tt.g, nil, eps)
			}
		})
	}
}

func TestCarveOnSubsetLeavesRestUntouched(t *testing.T) {
	g := graph.Path(20)
	nodes := []int{0, 1, 2, 3, 4, 5, 6, 7}
	c, err := Carve(g, nodes, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 8; v < 20; v++ {
		if c.Assign[v] != cluster.Unclustered {
			t.Fatalf("node %d outside S was assigned %d", v, c.Assign[v])
		}
	}
	// At least (1-eps) of the subset survives.
	dead := 0
	for _, v := range nodes {
		if c.Assign[v] == cluster.Unclustered {
			dead++
		}
	}
	if float64(dead) > 0.5*float64(len(nodes))+1 {
		t.Fatalf("%d of %d subset nodes dead", dead, len(nodes))
	}
}

func TestCarveIsDeterministic(t *testing.T) {
	g := graph.ConnectedGnp(120, 0.04, 9)
	a, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Fatalf("K differs: %d vs %d", a.K, b.K)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("assign[%d] differs: %d vs %d", v, a.Assign[v], b.Assign[v])
		}
	}
}

func TestCarveChargesRounds(t *testing.T) {
	g := graph.ConnectedGnp(100, 0.05, 5)
	m := rounds.NewMeter()
	if _, err := Carve(g, nil, 0.5, m); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
	if m.Component("rg/propose") == 0 || m.Component("rg/congestion") == 0 {
		t.Fatalf("missing components: %s", m)
	}
}

func TestCarveCompleteGraphSingleCluster(t *testing.T) {
	// On K_n all nodes merge quickly; nobody should die because every
	// proposal set is large relative to cluster sizes early on.
	c := checkInvariants(t, graph.Complete(64), nil, 0.5)
	if c.DeadFraction(nil) > 0.5 {
		t.Fatalf("complete graph dead fraction %f", c.DeadFraction(nil))
	}
}

func TestParamsForMonotone(t *testing.T) {
	small := ParamsFor(64, 0.5)
	large := ParamsFor(4096, 0.5)
	if large.Bits <= small.Bits {
		t.Fatalf("bits not monotone: %d vs %d", small.Bits, large.Bits)
	}
	if large.MaxDepth <= small.MaxDepth {
		t.Fatalf("depth bound not monotone")
	}
	tight := ParamsFor(1024, 0.5)
	loose := ParamsFor(1024, 0.1)
	if loose.MaxDepth <= tight.MaxDepth {
		t.Fatalf("depth bound must grow as eps shrinks")
	}
	if p := ParamsFor(1, 0.5); p.Bits != 1 {
		t.Fatalf("n=1 bits = %d", p.Bits)
	}
}

func TestPropertyCarveInvariants(t *testing.T) {
	f := func(seedRaw uint8, nRaw uint8, epsRaw uint8) bool {
		n := 20 + int(nRaw)%120
		eps := 0.2 + float64(epsRaw%60)/100.0
		g := graph.ConnectedGnp(n, 0.05, int64(seedRaw))
		c, err := Carve(g, nil, eps, nil)
		if err != nil {
			return false
		}
		p := ParamsFor(n, eps)
		return cluster.CheckWeakCarving(g, nil, c, eps, p.MaxDepth, p.Congestion) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCarveDepthWithinRealizedBound(t *testing.T) {
	// The realized tree depth should be far below the worst-case bound on
	// benign graphs; this guards against accidental depth blowups.
	g := graph.Grid(12, 12)
	c, err := Carve(g, nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := ParamsFor(g.N(), 0.5)
	for i, tr := range c.Trees {
		if d := tr.Depth(); d > p.MaxDepth {
			t.Fatalf("cluster %d tree depth %d exceeds bound %d", i, d, p.MaxDepth)
		}
	}
}

func ExampleCarve() {
	g := graph.Grid(8, 8)
	c, _ := Carve(g, nil, 0.5, nil)
	fmt.Println(c.K > 0, c.DeadFraction(nil) <= 0.5)
	// Output: true true
}

// TestCarveAllocs bounds a warm Carve's heap allocations on
// connected-gnp(2000). The carver state comes from a pool, so a warm carve
// allocates only its output: the assignment, the centers, the tree headers
// and pointers, the two tree slabs and the Carving, 7 allocations. The
// map-backed trees took ~4205 allocations here, the slab layout with a
// fresh state per call ~80.
func TestCarveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under -race instrumentation")
	}
	g := graph.ConnectedGnp(2000, 6.0/2000, 5)
	const ceiling = 10
	for _, eps := range []float64{0.3, 0.05} {
		if avg := testing.AllocsPerRun(5, func() {
			if _, err := Carve(g, nil, eps, nil); err != nil {
				t.Fatal(err)
			}
		}); avg > ceiling {
			t.Errorf("eps=%v: Carve allocates %.0f times per run, want <= %d", eps, avg, ceiling)
		}
	}
}

// TestCarveBytes bounds the bytes a warm Carve allocates on a 12000-node
// connected G(n, p). With the state pooled, that is the output alone:
// ~295 KB (~25 B/node). Keeping every attachment of the run took ~16.9 MB
// (~1405 B/node) here, and a fresh int-sized state per call with the attach
// log cut to live clusters ~5.2 MB (~436 B/node).
func TestCarveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard is meaningless under -race instrumentation")
	}
	g := graph.ConnectedGnp(12000, 6.0/12000, 11)
	const ceiling = 512 << 10
	// One P, as in testing.AllocsPerRun: the pool's per-P slot then hands
	// the warm state back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Carve(g, nil, 0.05, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Carve(g, nil, 0.05, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("warm Carve allocates %d bytes, want <= %d", got, ceiling)
	}
}

// TestPooledStateDropsHostTable: a small carve of a large graph goes back
// to the pool, but its host->local table, sized by the graph, does not.
// Kept, that table would be 7.6 MiB after a 4-node carve of
// graph.Path(2000000); a path of 4·maxPooledNodes nodes shows the same at
// a smaller cost.
func TestPooledStateDropsHostTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	g := graph.Path(4 * maxPooledNodes)
	// One P, as in TestCarveBytes: the pool's per-P slot then hands the
	// carve's state back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Carve(g, []int{0, 1, 2, 3}, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	st := statePool.Get().(*state)
	defer statePool.Put(st)
	if len(st.host) != 4 {
		t.Fatalf("pool handed back a state of %d nodes, not the 4-node carve's", len(st.host))
	}
	if len(st.loc) > maxPooledNodes {
		t.Fatalf("pooled state keeps a %d-entry host->local table", len(st.loc))
	}
}

// TestCarveRejectsBadNodes: local numbering needs distinct node ids in
// range, so Carve refuses anything else instead of indexing out of range.
func TestCarveRejectsBadNodes(t *testing.T) {
	g := graph.Grid(5, 5)
	cases := []struct {
		name  string
		nodes []int
	}{
		{"out of range", []int{0, 1, 99}},
		{"equal to n", []int{25}},
		{"negative", []int{-1, 0}},
		{"duplicate", []int{0, 1, 1}},
		{"duplicate unsorted", []int{7, 2, 7}},
	}
	for _, tc := range cases {
		if _, err := Carve(g, tc.nodes, 0.5, nil); err == nil {
			t.Errorf("%s: nodes %v accepted", tc.name, tc.nodes)
		}
	}
	// The same state carves a valid set afterwards.
	if _, err := Carve(g, []int{4, 0, 1}, 0.5, nil); err != nil {
		t.Fatal(err)
	}
}
