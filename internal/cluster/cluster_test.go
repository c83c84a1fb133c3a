package cluster

import (
	"testing"

	"strongdecomp/internal/graph"
)

func TestTreeDepthAndValidate(t *testing.T) {
	g := graph.Path(5)
	tr := NewTree(0)
	if err := tr.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(2, 1); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAddRequiresParent(t *testing.T) {
	tr := NewTree(0)
	if err := tr.Add(2, 1); err == nil {
		t.Fatal("attached to absent parent")
	}
}

func TestTreeAddIdempotent(t *testing.T) {
	tr := NewTree(0)
	if err := tr.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	// Second attachment of the same node is a no-op, keeping the original
	// parent (trees never rewire).
	if err := tr.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if len(tr.Parent) != 2 {
		t.Fatalf("tree has %d nodes", len(tr.Parent))
	}
}

func TestTreeValidateRejectsNonEdges(t *testing.T) {
	g := graph.Path(5)
	tr := NewTree(0)
	tr.Attach(3, 0) // 0-3 is not an edge of the path
	if err := tr.Validate(g); err == nil {
		t.Fatal("non-edge accepted")
	}
}

func TestTreeValidateRejectsBadRoot(t *testing.T) {
	g := graph.Path(3)
	tr := &Tree{Root: 0, Nodes: []int{0, 1}, Parent: []int{1, 0}}
	if err := tr.Validate(g); err == nil {
		t.Fatal("root with parent accepted")
	}
}

// TestTreeCheckLayoutRejectsMalformed covers every layout rule, each row
// breaking exactly one of them on a valid tree 0 -> 1 -> 2 of a 4-node host.
func TestTreeCheckLayoutRejectsMalformed(t *testing.T) {
	mark := make([]bool, 4)
	valid := func() *Tree { return &Tree{Root: 0, Nodes: []int{0, 1, 2}, Parent: []int{-1, 0, 1}} }
	if err := valid().CheckLayout(mark); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Tree){
		"empty":           func(tr *Tree) { tr.Nodes, tr.Parent = nil, nil },
		"length-mismatch": func(tr *Tree) { tr.Parent = tr.Parent[:2] },
		"root-not-first":  func(tr *Tree) { tr.Root = 1 },
		"root-has-parent": func(tr *Tree) { tr.Parent[0] = 0 },
		"parent-forward":  func(tr *Tree) { tr.Parent[1] = 2 },
		"parent-self":     func(tr *Tree) { tr.Parent[2] = 2 },
		"parent-negative": func(tr *Tree) { tr.Parent[2] = -1 },
		"duplicate-node":  func(tr *Tree) { tr.Nodes[2] = 1 },
		"node-too-large":  func(tr *Tree) { tr.Nodes[2] = 4 },
		"node-negative":   func(tr *Tree) { tr.Nodes[1] = -1 },
	} {
		tr := valid()
		mutate(tr)
		if err := tr.CheckLayout(mark); err == nil {
			t.Errorf("%s: malformed tree accepted", name)
		}
		for v, m := range mark {
			if m {
				t.Fatalf("%s: mark[%d] left set", name, v)
			}
		}
	}
}

func TestCarvingMembersAndDeadFraction(t *testing.T) {
	c := &Carving{Assign: []int{0, 0, Unclustered, 1, 1, Unclustered}, K: 2}
	members := c.Members()
	if len(members[0]) != 2 || len(members[1]) != 2 {
		t.Fatalf("members %v", members)
	}
	if f := c.DeadFraction(nil); f != 2.0/6.0 {
		t.Fatalf("dead fraction %f", f)
	}
	if f := c.DeadFraction([]int{0, 2}); f != 0.5 {
		t.Fatalf("restricted dead fraction %f", f)
	}
	if f := c.DeadFraction([]int{}); f != 0 {
		t.Fatalf("empty-set dead fraction %f", f)
	}
}

func TestCheckCarvingAcceptsValid(t *testing.T) {
	g := graph.Path(6)
	// Clusters {0,1} and {4,5}; nodes 2,3 dead. Non-adjacent, diameter 1.
	c := &Carving{Assign: []int{0, 0, Unclustered, Unclustered, 1, 1}, K: 2}
	if err := CheckCarving(g, nil, c, 0.34, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCarvingRejectsAdjacentClusters(t *testing.T) {
	g := graph.Path(4)
	c := &Carving{Assign: []int{0, 0, 1, 1}, K: 2}
	if err := CheckCarving(g, nil, c, 1, -1); err == nil {
		t.Fatal("adjacent clusters accepted")
	}
}

func TestCheckCarvingRejectsExcessDead(t *testing.T) {
	g := graph.Path(10)
	assign := make([]int, 10)
	for i := range assign {
		assign[i] = Unclustered
	}
	assign[0] = 0
	c := &Carving{Assign: assign, K: 1}
	if err := CheckCarving(g, nil, c, 0.5, -1); err == nil {
		t.Fatal("90% dead accepted at eps=0.5")
	}
}

func TestCheckCarvingRejectsDisconnectedCluster(t *testing.T) {
	g := graph.Path(5)
	c := &Carving{Assign: []int{0, Unclustered, 0, Unclustered, Unclustered}, K: 1}
	// Non-adjacency holds, but cluster 0 = {0,2} is disconnected: must fail
	// the strong-diameter check and pass without it.
	if err := CheckCarving(g, nil, c, 0.8, -1); err != nil {
		t.Fatalf("diameterless check failed: %v", err)
	}
	if err := CheckCarving(g, nil, c, 0.8, 10); err == nil {
		t.Fatal("disconnected cluster accepted with diameter bound")
	}
}

func TestCheckCarvingRejectsDiameterViolation(t *testing.T) {
	g := graph.Path(6)
	assign := []int{0, 0, 0, 0, 0, 0}
	c := &Carving{Assign: assign, K: 1}
	if err := CheckCarving(g, nil, c, 0, 3); err == nil {
		t.Fatal("diameter 5 accepted with bound 3")
	}
	if err := CheckCarving(g, nil, c, 0, 5); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCarvingRespectsAliveMask(t *testing.T) {
	g := graph.Path(4)
	alive := []bool{true, true, false, false}
	c := &Carving{Assign: []int{0, 0, Unclustered, Unclustered}, K: 1}
	if err := CheckCarving(g, alive, c, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Assigning a dead node must fail.
	c2 := &Carving{Assign: []int{0, 0, 0, Unclustered}, K: 1}
	if err := CheckCarving(g, alive, c2, 0, -1); err == nil {
		t.Fatal("assignment of non-alive node accepted")
	}
}

func TestCheckCarvingRejectsEmptyCluster(t *testing.T) {
	g := graph.Path(3)
	c := &Carving{Assign: []int{0, 0, Unclustered}, K: 2}
	if err := CheckCarving(g, nil, c, 1, -1); err == nil {
		t.Fatal("empty cluster id accepted")
	}
}

func TestCheckWeakCarving(t *testing.T) {
	// Cycle of 6: cluster {0, 2} with Steiner relay 1, cluster {4}.
	g := graph.Cycle(6)
	tr0 := NewTree(0)
	if err := tr0.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr0.Add(2, 1); err != nil {
		t.Fatal(err)
	}
	tr1 := NewTree(4)
	c := &Carving{
		Assign: []int{0, Unclustered, 0, Unclustered, 1, Unclustered},
		K:      2,
		Trees:  []*Tree{tr0, tr1},
	}
	if err := CheckWeakCarving(g, nil, c, 0.5, 2, 1); err != nil {
		t.Fatal(err)
	}
	// Depth bound violation.
	if err := CheckWeakCarving(g, nil, c, 0.5, 1, 1); err == nil {
		t.Fatal("depth 2 accepted with bound 1")
	}
	// Member missing from tree.
	c2 := &Carving{
		Assign: c.Assign,
		K:      2,
		Trees:  []*Tree{NewTree(0), tr1},
	}
	if err := CheckWeakCarving(g, nil, c2, 0.5, 2, 1); err == nil {
		t.Fatal("member outside tree accepted")
	}
}

func TestCheckWeakCarvingCongestion(t *testing.T) {
	// Path 0-1-2 with clusters {0} and {2}; node 1 dead but used as a
	// Steiner relay by both trees, so edge 0-1 has congestion 2: tree A is
	// 0 -> 1, tree B is 2 -> 1 -> 0.
	g := graph.Path(3)
	trA := NewTree(0)
	if err := trA.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	trB := NewTree(2)
	if err := trB.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := trB.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	c := &Carving{
		Assign: []int{0, Unclustered, 1},
		K:      2,
		Trees:  []*Tree{trA, trB},
	}
	if err := CheckWeakCarving(g, nil, c, 0.5, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := CheckWeakCarving(g, nil, c, 0.5, 2, 1); err == nil {
		t.Fatal("congestion 2 accepted with bound 1")
	}
}

func TestCheckDecomposition(t *testing.T) {
	g := graph.Path(6)
	d := &Decomposition{
		Assign: []int{0, 0, 1, 1, 2, 2},
		Color:  []int{0, 1, 0},
		K:      3,
		Colors: 2,
	}
	if err := CheckDecomposition(g, d, 1, true); err != nil {
		t.Fatal(err)
	}
	// Recolor so clusters 0 and 1 (adjacent) share a color: must fail.
	bad := &Decomposition{Assign: d.Assign, Color: []int{0, 0, 1}, K: 3, Colors: 2}
	if err := CheckDecomposition(g, bad, 1, true); err == nil {
		t.Fatal("same-color adjacency accepted")
	}
}

func TestCheckDecompositionRejectsUnassigned(t *testing.T) {
	g := graph.Path(2)
	d := &Decomposition{Assign: []int{0, Unclustered}, Color: []int{0}, K: 1, Colors: 1}
	if err := CheckDecomposition(g, d, -1, true); err == nil {
		t.Fatal("unassigned node accepted")
	}
}

func TestCheckDecompositionWeakDiameter(t *testing.T) {
	// Cluster {0, 2} on a path 0-1-2 where 1 is its own cluster: weak
	// diameter 2 through node 1, strong diameter undefined (disconnected).
	g := graph.Path(3)
	d := &Decomposition{
		Assign: []int{0, 1, 0},
		Color:  []int{0, 1},
		K:      2,
		Colors: 2,
	}
	if err := CheckDecomposition(g, d, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := CheckDecomposition(g, d, 2, true); err == nil {
		t.Fatal("weakly-connected cluster accepted as strong")
	}
}

func TestNodeColor(t *testing.T) {
	d := &Decomposition{Assign: []int{1, 0}, Color: []int{3, 5}, K: 2, Colors: 6}
	if d.NodeColor(0) != 5 || d.NodeColor(1) != 3 {
		t.Fatalf("node colors wrong")
	}
}

func TestMaxDiameterHelpers(t *testing.T) {
	g := graph.Path(6)
	members := [][]int{{0, 1, 2}, {4, 5}}
	if d := MaxStrongDiameter(g, members); d != 2 {
		t.Fatalf("max strong %d", d)
	}
	if d := MaxWeakDiameter(g, members); d != 2 {
		t.Fatalf("max weak %d", d)
	}
	if d := MaxStrongDiameter(g, [][]int{{0, 2}}); d != -1 {
		t.Fatalf("disconnected max strong %d", d)
	}
}
