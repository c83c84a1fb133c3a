// Package ls implements the randomized weak-diameter constructions of
// Linial and Saks [LS93]: a weak-diameter ball carving with clusters of weak
// diameter O(log n / ε) in O(log n / ε) rounds, and, by the standard
// iteration (core.DecomposeContext), a weak-diameter network decomposition
// with O(log n) colors and O(log n) weak diameter in O(log² n) rounds. These
// populate the "Weak / Randomized" rows of the paper's Tables 1 and 2.
//
// Per carving iteration every live node u draws a truncated geometric radius
// r_u and broadcasts (id_u, r_u) up to r_u hops; each node v selects the
// maximum-id node u covering it (d(u,v) <= r_u) and is clustered iff it lies
// strictly inside that ball (d(u,v) < r_u). The classic argument shows
// clusters of one iteration are non-adjacent, and each boundary event has
// probability at most p by memorylessness, so the expected dead fraction is
// at most p. CarveContext retries with fresh randomness until the realized
// dead fraction meets ε (Las Vegas boosting), so its post-condition is
// deterministic.
package ls

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// maxCarveAttempts bounds the Las Vegas retry loop; the per-attempt success
// probability is at least 1/2 by Markov, so 40 failures indicate a bug.
const maxCarveAttempts = 40

// Radius returns the truncation bound B(n, p): radii are capped so that the
// truncation distorts the geometric distribution by less than 1/n.
func Radius(n int, p float64) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n))/p)) + 1
}

// CarveContext computes a weak-diameter ball carving of the subgraph
// induced by nodes (nil = all of g) removing at most an eps fraction of
// them. Clusters have weak diameter at most 2·Radius(n, eps/2) and come with
// Steiner trees (the covering BFS trees truncated to members and their relay
// paths). Cancellation is observed between Las Vegas attempts.
func CarveContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, rng *rand.Rand, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("ls: eps %v outside (0, 1]", eps)
	}
	if nodes == nil {
		nodes = make([]int, g.N())
		for i := range nodes {
			nodes[i] = i
		}
	}
	if len(nodes) == 0 {
		return emptyCarving(g.N()), nil
	}
	p := eps / 2
	s := graph.NewScratch()
	for attempt := 0; attempt < maxCarveAttempts; attempt++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		c := carveOnce(g, s, nodes, p, rng, m)
		if c.DeadFraction(nodes) <= eps+1.0/float64(len(nodes)) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("ls: carving failed to meet eps=%v after %d attempts", eps, maxCarveAttempts)
}

// carveOnce runs one carving attempt; every flood and tree is a traversal
// of s restricted to the node set S.
func carveOnce(g *graph.Graph, s *graph.Scratch, nodes []int, p float64, rng *rand.Rand, m *rounds.Meter) *cluster.Carving {
	n := g.N()
	maxR := Radius(len(nodes), p)
	s.MarkSet(n, nodes)
	radius := make([]int, n)
	for _, v := range nodes {
		radius[v] = truncGeometric(p, maxR, rng)
	}

	// bestID[v]: maximum-id node covering v; bestDist[v]: its distance.
	bestID := make([]int, n)
	bestDist := make([]int, n)
	for i := range bestID {
		bestID[i] = -1
	}
	// Flood from every center, processed in increasing id; later (larger)
	// ids overwrite, so ties resolve to the maximum id.
	for _, u := range nodes {
		for _, v := range s.Ball(g, []int{u}, radius[u]) {
			if u >= bestID[v] {
				bestID[v] = u
				bestDist[v] = s.Dist(v)
			}
		}
	}
	// The CONGEST implementation pipelines all floods in O(maxR) rounds.
	m.Charge("ls/flood", int64(maxR)+1)
	m.ChargeMessages(int64(g.M()))

	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	// Strict interior rule; group members by center.
	members := make(map[int][]int)
	for _, v := range nodes {
		u := bestID[v]
		if u >= 0 && bestDist[v] < radius[u] {
			members[u] = append(members[u], v)
		}
	}
	centers := make([]int, 0, len(members))
	for u := range members {
		centers = append(centers, u)
	}
	sort.Ints(centers)
	trees := make([]*cluster.Tree, len(centers))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	for i, u := range centers {
		for _, v := range members[u] {
			assign[v] = i
		}
		trees[i] = steinerTree(g, s, u, members[u], idx)
	}
	return &cluster.Carving{Assign: assign, K: len(centers), Centers: centers, Trees: trees}
}

func truncGeometric(p float64, maxR int, rng *rand.Rand) int {
	r := 0
	for r < maxR && rng.Float64() >= p {
		r++
	}
	return r
}

// steinerTree builds the BFS tree from center u restricted to the current
// set of s, truncated to the paths reaching members (relays along those
// paths stay in the tree). idx is a node-indexed scratch that must be all
// -1 on entry; it maps tree nodes to their tree index while the tree grows
// and is all -1 again on return.
func steinerTree(g *graph.Graph, s *graph.Scratch, u int, members []int, idx []int) *cluster.Tree {
	s.Tree(g, u) // Val(v) is now v's parent
	t := cluster.NewTree(u)
	idx[u] = 0
	var attach func(v int) int
	attach = func(v int) int {
		if i := idx[v]; i >= 0 {
			return i
		}
		idx[v] = t.Attach(v, attach(s.Val(v)))
		return idx[v]
	}
	for _, v := range members {
		attach(v)
	}
	for _, v := range t.Nodes {
		idx[v] = -1
	}
	return t
}

func emptyCarving(n int) *cluster.Carving {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	return &cluster.Carving{Assign: assign}
}
