package graph

// This file holds the package-level convenience forms of the traversals:
// each borrows a pooled Scratch, whose methods are the traversals
// themselves.

// Components returns the connected components of the alive subgraph, each as
// a sorted node list; components are ordered by their smallest node.
func Components(g *Graph, alive []bool) [][]int {
	s := getScratch()
	comps := s.sortedComponents(g, alive)
	putScratch(s)
	return comps
}

// IsConnected reports whether the subgraph induced by nodes is
// connected (an empty or singleton set is connected). Membership and visit
// state live in pooled stamp slices, not maps — this runs inside cluster
// validation on every verify pass.
func IsConnected(g *Graph, nodes []int) bool {
	s := getScratch()
	ok := s.IsConnected(g, nodes)
	putScratch(s)
	return ok
}

// InducedSubgraph returns the subgraph induced by nodes together with the
// mapping from new IDs (0..len(nodes)-1) back to the original IDs. The
// relative order of nodes is preserved, so original ID order determines new
// ID order when nodes is sorted. Nodes must be distinct. Callers holding a
// Scratch (e.g. the Engine's pooled workers) should use its method form to
// share remap buffers.
func InducedSubgraph(g *Graph, nodes []int) (*Graph, []int) {
	s := getScratch()
	sub, orig := s.InducedSubgraph(g, nodes)
	putScratch(s)
	return sub, orig
}

// StrongDiameter returns the exact diameter of the subgraph induced by
// nodes, or -1 if that subgraph is disconnected or empty. Cost is
// O(|nodes| * edges(induced)), intended for clusters, which are small.
func StrongDiameter(g *Graph, nodes []int) int {
	s := getScratch()
	diam := s.StrongDiameter(g, nodes)
	putScratch(s)
	return diam
}

// WeakDiameter returns the maximum pairwise distance between nodes measured
// in the host graph g (paths may leave the node set), or -1 if some pair
// is disconnected in g or nodes is empty.
func WeakDiameter(g *Graph, nodes []int) int {
	if len(nodes) == 0 {
		return -1
	}
	s := getScratch()
	defer putScratch(s)
	s.MarkAll(g.N())
	diam := 0
	for _, v := range nodes {
		s.Ball(g, []int{v}, -1)
		for _, w := range nodes {
			if !s.Reached(w) {
				return -1
			}
			diam = max(diam, s.Dist(w))
		}
	}
	return diam
}

// PowerGraph returns G^k: nodes of g, with an edge between every pair at
// hop distance <= k in g. Used by the ABCP96 baseline. Cost: one depth-k
// ball per node.
func PowerGraph(g *Graph, k int) *Graph {
	s := getScratch()
	defer putScratch(s)
	s.MarkAll(g.N())
	b := NewBuilder(g.N())
	for v := range g.N() {
		for _, w := range s.Ball(g, []int{v}, k) {
			if w > v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.MustBuild()
}
