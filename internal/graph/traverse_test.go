package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

// allNodes returns a scratch whose current set is every node of g.
func allNodes(g *Graph) *Scratch {
	s := NewScratch()
	s.MarkAll(g.N())
	return s
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := Path(6)
	s := allNodes(g)
	order := s.Ball(g, []int{0}, -1)
	if len(order) != 6 {
		t.Fatalf("visited %d nodes", len(order))
	}
	for v := 0; v < 6; v++ {
		if s.Dist(v) != v {
			t.Fatalf("dist[%d] = %d", v, s.Dist(v))
		}
	}
	if order := s.Ball(g, []int{0}, 2); !slices.Equal(order, []int{0, 1, 2}) || s.Reached(3) {
		t.Fatalf("depth-2 ball visits %v", order)
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := Path(7)
	s := allNodes(g)
	s.Ball(g, []int{0, 6}, -1)
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for v, w := range want {
		if s.Dist(v) != w {
			t.Fatalf("dist[%d] = %d, want %d", v, s.Dist(v), w)
		}
	}
}

func TestBFSRespectsAliveMask(t *testing.T) {
	g := Path(5)
	s := NewScratch()
	s.MarkSet(g.N(), []int{0, 1, 3, 4})
	order := s.Ball(g, []int{0}, -1)
	if len(order) != 2 {
		t.Fatalf("visited %d nodes through a non-member", len(order))
	}
	if s.Reached(3) || s.Reached(4) {
		t.Fatal("reached across a non-member")
	}
	// A source outside the set is skipped entirely, and so is a removed one.
	if order = s.Ball(g, []int{2}, -1); len(order) != 0 {
		t.Fatalf("non-member source visited %d nodes", len(order))
	}
	s.Remove(3)
	if order = s.Ball(g, []int{3, 4}, -1); !slices.Equal(order, []int{4}) {
		t.Fatalf("after removing 3, ball from {3, 4} visits %v", order)
	}
}

func TestBFSTreeParents(t *testing.T) {
	g := Grid(3, 3)
	s := allNodes(g)
	dist, _ := maskedBFSTree(g, nil, 0)
	order := s.Tree(g, 0)
	if len(order) != g.N() || s.Val(0) != -1 {
		t.Fatalf("tree visits %v, root parent %d", order, s.Val(0))
	}
	for v := 1; v < g.N(); v++ {
		p := s.Val(v)
		if !g.HasEdge(v, p) {
			t.Fatalf("parent edge %d-%d missing", v, p)
		}
		if dist[v] != dist[p]+1 {
			t.Fatalf("dist[%d]=%d but dist[parent]=%d", v, dist[v], dist[p])
		}
	}
}

func TestComponentsSplitsUnion(t *testing.T) {
	g := DisjointUnion(Path(3), Path(4))
	comps := Components(g, nil)
	if len(comps) != 2 || len(comps[0]) != 3 || len(comps[1]) != 4 {
		t.Fatalf("components: %v", comps)
	}
}

func TestComponentsWithMask(t *testing.T) {
	g := Path(5)
	alive := []bool{true, true, false, true, true}
	comps := Components(g, alive)
	if len(comps) != 2 {
		t.Fatalf("masked components: %v", comps)
	}
}

// TestComponentsSortedOrder checks the sort-free Components against the
// BFS-order scratch components sorted afterwards: same components, ordered
// by smallest node, members ascending.
func TestComponentsSortedOrder(t *testing.T) {
	s := NewScratch()
	for seed := int64(1); seed <= 8; seed++ {
		g := DisjointUnion(ConnectedGnp(60, 0.04, seed), Grid(6, 7), Star(9))
		alive := make([]bool, g.N())
		for v := range alive {
			alive[v] = (v*7+int(seed))%5 != 0
		}
		for _, mask := range [][]bool{nil, alive} {
			got := Components(g, mask)
			want := s.Components(g, mask)
			for _, c := range want {
				slices.Sort(c)
			}
			if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("seed %d: components %v, want %v", seed, got, want)
			}
			for i := 1; i < len(got); i++ {
				if got[i][0] <= got[i-1][0] {
					t.Fatalf("seed %d: components not ordered by smallest node", seed)
				}
			}
		}
	}
}

func TestIsConnected(t *testing.T) {
	g := Path(5)
	if !IsConnected(g, []int{1, 2, 3}) {
		t.Fatal("contiguous path segment reported disconnected")
	}
	if IsConnected(g, []int{0, 2}) {
		t.Fatal("gap segment reported connected")
	}
	if !IsConnected(g, nil) || !IsConnected(g, []int{3}) {
		t.Fatal("trivial sets must be connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	sub, orig := InducedSubgraph(g, []int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("sub n = %d", sub.N())
	}
	// Edges 0-1, 1-2 survive; 4 is isolated within the set.
	if sub.M() != 2 {
		t.Fatalf("sub m = %d, want 2", sub.M())
	}
	if orig[3] != 4 {
		t.Fatalf("orig mapping %v", orig)
	}
}

func TestStrongDiameter(t *testing.T) {
	g := Path(10)
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	if d := StrongDiameter(g, all); d != 9 {
		t.Fatalf("path diameter %d", d)
	}
	if d := StrongDiameter(g, []int{0, 1, 5}); d != -1 {
		t.Fatalf("disconnected set diameter %d, want -1", d)
	}
	if d := StrongDiameter(g, nil); d != -1 {
		t.Fatalf("empty set diameter %d, want -1", d)
	}
	if d := StrongDiameter(g, []int{4}); d != 0 {
		t.Fatalf("singleton diameter %d", d)
	}
}

func TestWeakVsStrongDiameter(t *testing.T) {
	// On a cycle, two antipodal-ish arcs: the set {0, 3} on C6 has weak
	// diameter 3 (through the graph) but is disconnected as induced.
	g := Cycle(6)
	if d := WeakDiameter(g, []int{0, 3}); d != 3 {
		t.Fatalf("weak diameter %d, want 3", d)
	}
	if d := StrongDiameter(g, []int{0, 3}); d != -1 {
		t.Fatalf("strong diameter %d, want -1", d)
	}
	// Weak diameter across two components.
	if d := WeakDiameter(DisjointUnion(g, Path(2)), []int{0, 6}); d != -1 {
		t.Fatalf("disconnected weak diameter %d, want -1", d)
	}
}

func TestPowerGraph(t *testing.T) {
	g := Path(5)
	p2 := PowerGraph(g, 2)
	if !p2.HasEdge(0, 2) || p2.HasEdge(0, 3) {
		t.Fatalf("P^2 edges wrong")
	}
	p4 := PowerGraph(g, 4)
	if p4.M() != 10 {
		t.Fatalf("P^4 of path(5) should be complete, m=%d", p4.M())
	}
}

func TestNeighborhoodSizes(t *testing.T) {
	g := Path(5)
	s := allNodes(g)
	if sizes, want := s.Layers(g, []int{0}, -1), []int{1, 2, 3, 4, 5}; !slices.Equal(sizes, want) {
		t.Fatalf("sizes %v, want %v", sizes, want)
	}
	if sizes, want := s.Layers(g, []int{0}, 2), []int{1, 2, 3}; !slices.Equal(sizes, want) {
		t.Fatalf("depth-2 sizes %v, want %v", sizes, want)
	}
	s.BeginSet(g.N())
	if sizes := s.Layers(g, []int{0}, -1); sizes != nil {
		t.Fatalf("non-member sources gave sizes %v", sizes)
	}
}

// Property: BFS distances satisfy the triangle-ish property along edges:
// adjacent alive nodes differ by at most 1 in distance.
func TestPropertyBFSLipschitz(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := 10 + int(nRaw%50)
		g := ConnectedGnp(n, 0.08, int64(seed))
		s := allNodes(g)
		s.Ball(g, []int{0}, -1)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				d := s.Dist(u) - s.Dist(v)
				if d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: strong diameter >= weak diameter for connected induced sets.
func TestPropertyWeakLEStrong(t *testing.T) {
	f := func(seed uint8) bool {
		g := ConnectedGnp(40, 0.05, int64(seed))
		// Take a BFS ball around node 0 of radius 3: connected by construction.
		ball := slices.Clone(allNodes(g).Ball(g, []int{0}, 3))
		sd := StrongDiameter(g, ball)
		wd := WeakDiameter(g, ball)
		return sd >= 0 && wd >= 0 && wd <= sd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
