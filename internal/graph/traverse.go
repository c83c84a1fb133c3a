package graph

import "sort"

// This file contains the traversal and distance primitives shared by all
// decomposition algorithms. Every function takes an optional alive mask
// (nil means "all nodes alive") so that algorithms can operate on the
// subgraph induced by surviving nodes without materializing it.

// BFS runs a multi-source breadth-first search from srcs restricted to alive
// nodes and fills dist with hop distances (-1 for unreachable or dead
// nodes). dist must have length g.N(); it is reused as scratch to avoid
// allocation in hot loops. It returns the visited nodes in BFS order.
func BFS(g *Graph, alive []bool, srcs []int, dist []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(srcs))
	for _, s := range srcs {
		if alive != nil && !alive[s] {
			continue
		}
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] != -1 || (alive != nil && !alive[v]) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return queue
}

// BFSTree runs a single-source BFS and returns (dist, parent) with
// parent[src] = -1 and parent[v] = -1 for unreachable v.
func BFSTree(g *Graph, alive []bool, src int) (dist, parent []int) {
	dist = make([]int, g.N())
	parent = make([]int, g.N())
	for i := range dist {
		dist[i], parent[i] = -1, -1
	}
	if alive != nil && !alive[src] {
		return dist, parent
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] != -1 || (alive != nil && !alive[v]) {
				continue
			}
			dist[v] = dist[u] + 1
			parent[v] = u
			queue = append(queue, v)
		}
	}
	return dist, parent
}

// Components returns the connected components of the alive subgraph, each as
// a sorted node list; components are ordered by their smallest node.
func Components(g *Graph, alive []bool) [][]int {
	s := getScratch()
	comps := s.sortedComponents(g, alive)
	putScratch(s)
	return comps
}

// IsConnected reports whether the alive subgraph restricted to nodes is
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
// in the alive subgraph of the host graph g (paths may leave the node set),
// or -1 if some pair is disconnected in the host subgraph.
func WeakDiameter(g *Graph, alive []bool, nodes []int) int {
	if len(nodes) == 0 {
		return -1
	}
	dist := make([]int, g.N())
	diam := 0
	for _, v := range nodes {
		BFS(g, alive, []int{v}, dist)
		for _, w := range nodes {
			if dist[w] == -1 {
				return -1
			}
			if dist[w] > diam {
				diam = dist[w]
			}
		}
	}
	return diam
}

// PowerGraph returns G^k: nodes of g, with an edge between every pair at
// hop distance <= k in g. Used by the ABCP96 baseline. Cost O(n * m).
func PowerGraph(g *Graph, k int) *Graph {
	b := NewBuilder(g.N())
	dist := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		order := bfsBounded(g, v, k, dist)
		for _, w := range order {
			if w > v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.MustBuild()
}

// bfsBounded explores up to depth k from src and returns visited nodes;
// dist is scratch of length g.N().
func bfsBounded(g *Graph, src, k int, dist []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[u] == k {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// NeighborhoodSizes returns, for a BFS from srcs in the alive subgraph, the
// cumulative count of nodes within each distance d (index d holds
// |B_d(srcs)|). The slice has length maxEcc+1.
func NeighborhoodSizes(g *Graph, alive []bool, srcs []int, dist []int) []int {
	order := BFS(g, alive, srcs, dist)
	if len(order) == 0 {
		return nil
	}
	maxD := dist[order[len(order)-1]]
	sizes := make([]int, maxD+1)
	for _, v := range order {
		sizes[dist[v]]++
	}
	for d := 1; d <= maxD; d++ {
		sizes[d] += sizes[d-1]
	}
	return sizes
}

func sortInts(a []int) { sort.Ints(a) }
