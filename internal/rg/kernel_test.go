package rg

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"strongdecomp/internal/graph"
)

// TestProposalTieBreak pins the proposal scan on a hand-built neighborhood.
// Blue node 0 sees, in phase 0 (red = odd host label):
//
//   - node 1, whose red cluster 1 has the smallest label but has retired;
//   - node 2, which is dead;
//   - nodes 4 and 5, two members of red cluster 7, the smallest open label;
//   - node 3, a member of the larger red cluster 9 with a smaller id;
//   - nodes 6 and 8, which are outside the carved set.
//
// It must propose to cluster 7 through node 4. Nodes 6 and 8 are left out
// of S, so host 7 has local id 6 and host 9 local id 7: red must come from
// the label's host id, not its local id. Push seeding must make the same
// choices, with node 1 dead in place of its retired cluster.
func TestProposalTieBreak(t *testing.T) {
	b := graph.NewBuilder(10)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 8}, {7, 4}, {7, 5}, {9, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{9, 0, 1, 2, 3, 4, 5, 7}
	st := new(state)
	if err := st.reset(g, nodes, 0.5); err != nil {
		t.Fatal(err)
	}
	local := func(v int) int32 {
		i, ok := slices.BinarySearch(st.host, int32(v))
		if !ok {
			t.Fatalf("node %d has no local id", v)
		}
		return int32(i)
	}
	hostLabel := map[int]int{0: 0, 1: 1, 2: -1, 3: 9, 4: 7, 5: 7, 7: 7, 9: 9}
	for v, l := range hostLabel {
		if l < 0 {
			st.label[local(v)] = -1
		} else {
			st.label[local(v)] = local(l)
		}
	}

	// proposal runs one proposal pass and returns node 0's proposal,
	// leaving no candidate behind.
	proposal := func(pass func()) (label, via int) {
		t.Helper()
		pass()
		if len(st.props) != 1 {
			t.Fatalf("%d proposals, want 1", len(st.props))
		}
		p := st.props[0]
		if st.host[p.node] != 0 {
			t.Fatalf("proposer %d, want 0", st.host[p.node])
		}
		st.nstat[p.node] &^= statActive
		st.activeBlue = st.activeBlue[:0]
		st.props = st.props[:0]
		return int(st.host[p.label]), int(st.host[p.via])
	}
	collect := func() {
		st.nstat[local(0)] = statActive
		st.activeBlue = append(st.activeBlue, local(0))
		st.collectProposals()
	}

	st.paint(0)
	if l, via := proposal(collect); l != 1 || via != 1 {
		t.Fatalf("before retirement: proposed (label %d, via %d), want (1, 1)", l, via)
	}
	if l, via := proposal(st.pushSeed); l != 1 || via != 1 {
		t.Fatalf("push at phase start: proposed (label %d, via %d), want (1, 1)", l, via)
	}
	st.stat[local(1)+1] |= statRetired
	if l, via := proposal(collect); l != 7 || via != 4 {
		t.Fatalf("proposed (label %d, via %d), want (7, 4)", l, via)
	}

	// Push seeding runs only at phase start, before any retirement, so its
	// case for cluster 1 is a dead node 1 instead: the dead nodes 1 and 2
	// push nothing, and the red nodes 3, 4 and 5 push their own keys.
	st.label[local(1)] = -1
	st.paint(0)
	if l, via := proposal(st.pushSeed); l != 7 || via != 4 {
		t.Fatalf("push: proposed (label %d, via %d), want (7, 4)", l, via)
	}
	for v, key := range st.best {
		if key != math.MaxUint64 {
			t.Fatalf("push left best[%d] = %#x", st.host[v], key)
		}
	}
}

// TestCarveNodeOrder: the carved set's order in nodes decides only the
// seeding order, so a shuffled nodes gives the same assignment, centers and
// Steiner tree edge sets as the ascending one.
func TestCarveNodeOrder(t *testing.T) {
	for _, in := range carveFixtureInputs()[:3] {
		nodes := in.nodes
		if nodes == nil {
			nodes = allNodes(in.g.N())
		}
		shuffled := slices.Clone(nodes)
		rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, eps := range carveFixtureEps {
			want, err := Carve(in.g, nodes, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Carve(in.g, shuffled, eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assign, want.Assign) || !slices.Equal(got.Centers, want.Centers) {
				t.Fatalf("%s eps=%v: shuffled nodes changed the assignment or centers", in.name, eps)
			}
			for i := range want.Trees {
				if !slices.Equal(treeEdges(got.Trees[i]), treeEdges(want.Trees[i])) {
					t.Fatalf("%s eps=%v: shuffled nodes changed cluster %d's tree edges", in.name, eps, i)
				}
			}
		}
	}
}
