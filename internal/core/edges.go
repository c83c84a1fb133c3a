package core

// This file implements the *edge version* of the Theorem 2.1 transformation
// and Theorem 2.2 carving, which the paper states as a corollary ("all
// results in Table 2 ... also apply to the edge version, where we remove at
// most an ε fraction of the edges ... the proofs for the edge version are
// essentially the same"). Nodes are never removed: instead at most an ε
// fraction of the edges is cut, every node ends up in a cluster, distinct
// clusters have no remaining edge between them, and each cluster — a
// connected component of the remaining graph — has bounded strong diameter
// measured within the remaining graph.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
)

// EdgeCarving is a clustering of all nodes together with the cut edge set.
type EdgeCarving struct {
	Assign  []int
	K       int
	Centers []int
	Cut     [][2]int
}

// EdgeWeakCarver is the edge-version black box of the transformation.
type EdgeWeakCarver func(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*rg.EdgeCarving, error)

// StrongCarveEdgesContext is the edge version of Theorem 2.1: using a
// weak-diameter edge carver as a black box, it cuts at most an eps fraction
// of the edges of the subgraph induced by nodes so that every remaining
// connected component has bounded strong diameter. The iteration structure
// mirrors the node version with edge counts in place of node counts: the
// giant-cluster ball grows until a radius whose boundary holds at most an
// eps/2 fraction of the ball's edges, and the boundary edges (not nodes)
// are cut. Cancellation is observed before every component task.
func StrongCarveEdgesContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, weak EdgeWeakCarver, m *rounds.Meter) (*EdgeCarving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: eps %v outside (0, 1]", eps)
	}
	if nodes == nil {
		nodes = allNodes(g.N())
	}
	out := &EdgeCarving{Assign: make([]int, g.N())}
	for i := range out.Assign {
		out.Assign[i] = cluster.Unclustered
	}
	if len(nodes) == 0 {
		return out, nil
	}

	totalEdges := inducedEdgeCount(g, maskOf(g.N(), nodes), nil)
	if totalEdges == 0 {
		// Isolated nodes: every node is its own cluster.
		for _, v := range nodes {
			out.Assign[v] = out.K
			out.Centers = append(out.Centers, v)
			out.K++
		}
		return out, nil
	}
	iterLimit := log2ceil(totalEdges) + 1
	epsWeak := eps / (2 * float64(log2ceil(totalEdges)))
	window := shellWindow(totalEdges, eps)

	cut := make(map[[2]int]bool)
	isCut := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		return cut[[2]int{u, v}]
	}
	addCut := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		cut[[2]int{u, v}] = true
	}

	type task struct {
		comp []int
		iter int
	}
	var queue []task
	for _, comp := range componentsEdges(g, nodes, isCut) {
		queue = append(queue, task{comp: comp, iter: 1})
	}
	dist := make([]int, g.N())
	var sc Scratch // for treeDepth, which needs no host-sized state

	for len(queue) > 0 {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		t := queue[0]
		queue = queue[1:]
		s := t.comp
		if len(s) == 0 {
			continue
		}
		sMask := maskOf(g.N(), s)
		mS := inducedEdgeCount(g, sMask, isCut)
		if len(s) == 1 || mS == 0 || t.iter > iterLimit {
			for _, v := range s {
				out.Assign[v] = out.K
			}
			out.Centers = append(out.Centers, s[0])
			out.K++
			continue
		}

		// The weak edge carver runs on the remaining subgraph: materialize
		// it so prior cuts are invisible to the black box.
		sub, orig := inducedMinusCut(g, s, isCut)
		wc, err := weak(sub, nil, epsWeak, m)
		if err != nil {
			return nil, fmt.Errorf("core: weak edge carver: %w", err)
		}

		// Gather sizes over Steiner trees: depth x congestion.
		members := wc.Carving.Members()
		maxDepth := 0
		for cl := range members {
			if tr := wc.Carving.Trees[cl]; tr != nil {
				if d := tr.Depth(); d > maxDepth {
					maxDepth = d
				}
			}
		}
		m.Charge("thm21/gather", int64(maxDepth+1)*int64(log2ceil(g.N())))

		threshold := float64(totalEdges) / math.Exp2(float64(t.iter))
		giant := -1
		for cl, ms := range members {
			if float64(internalEdges(sub, ms)) > threshold {
				giant = cl
				break
			}
		}

		if giant < 0 {
			// Commit the weak carver's cuts; recurse on the components.
			for _, e := range wc.Cut {
				addCut(orig[e[0]], orig[e[1]])
			}
			for _, comp := range componentsEdges(g, s, isCut) {
				queue = append(queue, task{comp: comp, iter: t.iter + 1})
			}
			continue
		}

		// Giant cluster: ball-grow from its tree root in the remaining
		// subgraph, counting internal edges per radius.
		root := orig[wc.Carving.Centers[giant]]
		_, rootDepth := sc.treeDepth(wc.Carving.Trees[giant], wc.Carving.Assign, giant)
		order := bfsMinusCut(g, sMask, isCut, root, dist)
		edgeAt := cumulativeEdges(g, sMask, isCut, order, dist)
		maxLayer := len(edgeAt) - 1
		rStart := rootDepth
		if rStart > maxLayer {
			rStart = maxLayer
		}
		rStar := rStart
		for r := rStart; r < maxLayer && r < rStart+window; r++ {
			if float64(edgeAt[r]) >= (1-eps/2)*float64(sizeAt(edgeAt, r+1)) {
				rStar = r
				break
			}
			rStar = r + 1
		}
		m.Charge("thm21/bfs", int64(rStar)+2)

		var ball []int
		for _, v := range s {
			if dist[v] >= 0 && dist[v] <= rStar {
				ball = append(ball, v)
			}
		}
		// Cut every remaining edge leaving the ball.
		for _, v := range ball {
			for _, u := range g.Neighbors(v) {
				if sMask[u] && !isCut(v, u) && (dist[u] < 0 || dist[u] > rStar) {
					addCut(v, u)
				}
			}
		}
		for _, v := range ball {
			out.Assign[v] = out.K
		}
		out.Centers = append(out.Centers, root)
		out.K++
		var rest []int
		for _, v := range s {
			if dist[v] < 0 || dist[v] > rStar {
				rest = append(rest, v)
			}
		}
		for _, comp := range componentsEdges(g, rest, isCut) {
			queue = append(queue, task{comp: comp, iter: t.iter + 1})
		}
	}

	out.Cut = make([][2]int, 0, len(cut))
	for e := range cut {
		out.Cut = append(out.Cut, e)
	}
	sort.Slice(out.Cut, func(i, j int) bool {
		if out.Cut[i][0] != out.Cut[j][0] {
			return out.Cut[i][0] < out.Cut[j][0]
		}
		return out.Cut[i][1] < out.Cut[j][1]
	})
	return out, nil
}

// CarveEdgesRGContext is the edge version of Theorem 2.2:
// StrongCarveEdgesContext instantiated with the deterministic weak edge
// carver of internal/rg.
func CarveEdgesRGContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*EdgeCarving, error) {
	return StrongCarveEdgesContext(ctx, g, nodes, eps, rg.CarveEdges, m)
}

// --- helpers ---------------------------------------------------------------

// inducedEdgeCount counts uncut edges with both endpoints in the mask.
func inducedEdgeCount(g *graph.Graph, mask []bool, isCut func(u, v int) bool) int {
	count := 0
	for u := 0; u < g.N(); u++ {
		if !mask[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if u < v && mask[v] && (isCut == nil || !isCut(u, v)) {
				count++
			}
		}
	}
	return count
}

// internalEdges counts edges of g with both endpoints in members.
func internalEdges(g *graph.Graph, members []int) int {
	in := make(map[int]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	count := 0
	for _, v := range members {
		for _, u := range g.Neighbors(v) {
			if v < u && in[u] {
				count++
			}
		}
	}
	return count
}

// componentsEdges returns the connected components of the remaining graph
// (mask minus cut edges) restricted to nodes.
func componentsEdges(g *graph.Graph, nodes []int, isCut func(u, v int) bool) [][]int {
	mask := maskOf(g.N(), nodes)
	seen := make(map[int]bool, len(nodes))
	var comps [][]int
	for _, s := range nodes {
		if seen[s] {
			continue
		}
		queue := []int{s}
		seen[s] = true
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if mask[v] && !seen[v] && !isCut(u, v) {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comp := append([]int(nil), queue...)
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// bfsMinusCut is BFS in the remaining subgraph; dist is -1 off-tree.
func bfsMinusCut(g *graph.Graph, mask []bool, isCut func(u, v int) bool, src int, dist []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	order := []int{src}
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range g.Neighbors(u) {
			if mask[v] && dist[v] == -1 && !isCut(u, v) {
				dist[v] = dist[u] + 1
				order = append(order, v)
			}
		}
	}
	return order
}

// cumulativeEdges returns, per radius r, the number of remaining edges with
// both endpoints within distance r of the BFS source.
func cumulativeEdges(g *graph.Graph, mask []bool, isCut func(u, v int) bool, order []int, dist []int) []int {
	maxD := 0
	for _, v := range order {
		if dist[v] > maxD {
			maxD = dist[v]
		}
	}
	counts := make([]int, maxD+1)
	for _, v := range order {
		for _, u := range g.Neighbors(v) {
			if v < u && mask[u] && dist[u] >= 0 && !isCut(v, u) {
				d := dist[v]
				if dist[u] > d {
					d = dist[u]
				}
				counts[d]++
			}
		}
	}
	for d := 1; d <= maxD; d++ {
		counts[d] += counts[d-1]
	}
	return counts
}

// inducedMinusCut materializes the remaining subgraph on nodes, returning it
// with the new-to-original id mapping.
func inducedMinusCut(g *graph.Graph, nodes []int, isCut func(u, v int) bool) (*graph.Graph, []int) {
	toNew := make(map[int]int, len(nodes))
	orig := make([]int, len(nodes))
	for i, v := range nodes {
		toNew[v] = i
		orig[i] = v
	}
	b := graph.NewBuilder(len(nodes))
	for i, v := range nodes {
		for _, w := range g.Neighbors(v) {
			if j, ok := toNew[w]; ok && i < j && !isCut(v, w) {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild(), orig
}
