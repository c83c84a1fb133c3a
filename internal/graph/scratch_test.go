package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// setFamilies are the graphs the set-restricted traversal tests run on,
// of different sizes so one scratch is reused across grows.
func setFamilies() map[string]*Graph {
	return map[string]*Graph{
		"path":  Path(120),
		"grid":  Grid(11, 11),
		"gnp":   ConnectedGnp(300, 0.02, 3),
		"union": DisjointUnion(Path(30), Grid(5, 5), Star(12)),
		"cycle": Cycle(40),
	}
}

// randomSet returns an ascending random subset of g's nodes and its mask.
func randomSet(g *Graph, rng *rand.Rand) ([]int, []bool) {
	var set []int
	mask := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if rng.Intn(3) > 0 {
			set = append(set, v)
			mask[v] = true
		}
	}
	return set, mask
}

// TestScratchSetTraversalsMatchMaskedOnes checks the set-restricted
// traversals against the mask-based oracles on random subsets of every
// family, through one scratch that also runs unrestricted calls in
// between: ComponentsOf against Components (same components, same order,
// members ascending); Layers, Order and Val against maskedBFS; Ball with
// a depth cap against the oracle's visit order cut at that depth; and
// Tree against maskedBFSTree.
func TestScratchSetTraversalsMatchMaskedOnes(t *testing.T) {
	s := NewScratch()
	rng := rand.New(rand.NewSource(1))
	for name, g := range setFamilies() {
		for trial := 0; trial < 5; trial++ {
			set, mask := randomSet(g, rng)
			got, want := s.ComponentsOf(g, set), Components(g, mask)
			if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("%s trial %d: ComponentsOf %v, want %v", name, trial, got, want)
			}
			s.Components(g, nil) // an unrestricted traversal in between

			srcs := []int{rng.Intn(g.N()), rng.Intn(g.N())}
			dist := make([]int, g.N())
			wantOrder := maskedBFS(g, mask, srcs, dist)
			var wantSizes []int // wantSizes[r]: members within distance r
			for r := 0; len(wantOrder) > 0 && r <= dist[wantOrder[len(wantOrder)-1]]; r++ {
				within := 0
				for _, v := range wantOrder {
					if dist[v] <= r {
						within++
					}
				}
				wantSizes = append(wantSizes, within)
			}
			s.MarkSet(g.N(), set)
			sizes := s.Layers(g, srcs, -1)
			if !slices.Equal(sizes, wantSizes) {
				t.Fatalf("%s trial %d: Layers %v, want %v", name, trial, sizes, wantSizes)
			}
			if !slices.Equal(s.Order(), wantOrder) {
				t.Fatalf("%s trial %d: Order %v, want %v", name, trial, s.Order(), wantOrder)
			}
			for v := range g.N() {
				if s.Reached(v) != (dist[v] >= 0) || (dist[v] >= 0 && s.Dist(v) != dist[v]) {
					t.Fatalf("%s trial %d: node %v reached %v at %d, BFS says %d", name, trial, v, s.Reached(v), s.Dist(v), dist[v])
				}
			}

			depth := rng.Intn(4)
			capped := wantOrder
			for i, v := range wantOrder {
				if dist[v] > depth {
					capped = wantOrder[:i]
					break
				}
			}
			if order := s.Ball(g, srcs, depth); !slices.Equal(order, capped) {
				t.Fatalf("%s trial %d: Ball to depth %d visits %v, want %v", name, trial, depth, order, capped)
			}
			for v := range g.N() {
				if in := dist[v] >= 0 && dist[v] <= depth; s.Reached(v) != in || (in && s.Dist(v) != dist[v]) {
					t.Fatalf("%s trial %d: depth %d: node %v reached %v at %d, BFS says %d", name, trial, depth, v, s.Reached(v), s.Dist(v), dist[v])
				}
			}

			root := set[rng.Intn(len(set))]
			treeDist, parent := maskedBFSTree(g, mask, root)
			order := s.Tree(g, root)
			reached := 0
			for v := range g.N() {
				if treeDist[v] < 0 {
					if s.Reached(v) {
						t.Fatalf("%s trial %d: Tree from %d reached %d outside its component", name, trial, root, v)
					}
					continue
				}
				reached++
				if !s.Reached(v) || s.Val(v) != parent[v] {
					t.Fatalf("%s trial %d: Tree from %d gives %d parent %d, want %d", name, trial, root, v, s.Val(v), parent[v])
				}
			}
			if len(order) != reached || order[0] != root {
				t.Fatalf("%s trial %d: Tree from %d visits %v, want %d nodes from the root", name, trial, root, order, reached)
			}
		}
	}
}

// TestScratchOtherCallsEndTheSet pins that a method outside the set API
// ends the current set: a traversal after it finds no members, rather
// than taking the nodes the other call stamped as members.
func TestScratchOtherCallsEndTheSet(t *testing.T) {
	g := Path(10)
	s := NewScratch()
	s.MarkSet(g.N(), []int{0, 1, 2})
	s.Components(g, nil)
	if sizes := s.Layers(g, []int{5}, -1); sizes != nil {
		t.Fatalf("Layers after Components found %v, want no members", sizes)
	}
	if s.Has(0) || s.Has(5) {
		t.Fatal("a node is still a member after Components")
	}
	s.MarkSet(g.N(), []int{0, 1, 2})
	s.IsConnected(g, []int{5, 6})
	if s.Has(0) || !s.Has(5) {
		t.Fatal("IsConnected did not replace the set")
	}
}

// TestScratchSplitSetWindowsAreCapped checks that appending to one
// component SplitSet returns cannot overwrite the next.
func TestScratchSplitSetWindowsAreCapped(t *testing.T) {
	g := DisjointUnion(Path(3), Path(3))
	s := NewScratch()
	set := []int{0, 1, 2, 3, 4, 5}
	s.MarkSet(g.N(), set)
	_, comps := s.SplitSet(g, set, nil, nil)
	if len(comps) != 2 {
		t.Fatalf("split into %d components, want 2", len(comps))
	}
	_ = append(comps[0], 99)
	if !slices.Equal(comps[1], []int{3, 4, 5}) {
		t.Fatalf("second component became %v", comps[1])
	}
}

// TestScratchPreorder pins the halving order: the pre-order of the BFS
// tree from root, children ascending, restricted to the set.
func TestScratchPreorder(t *testing.T) {
	// 0-1, 0-2, 1-3, 2-3, 2-4, 3-5; node 4 is outside the set.
	b := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	s.MarkSet(g.N(), []int{0, 1, 2, 3, 5})
	// BFS tree: 1 and 2 under 0, 3 under 1 (found first), 5 under 3.
	if got, want := s.Preorder(g, 0, nil), []int{0, 1, 3, 5, 2}; !slices.Equal(got, want) {
		t.Fatalf("Preorder = %v, want %v", got, want)
	}
}
