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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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

// edgeTask is one connected component of the remaining graph: h is that
// component, its nodes numbered in the ascending order of their host ids,
// which orig lists.
type edgeTask struct {
	h    *graph.Graph
	orig []int
	iter int
}

// CarveEdgesRGContext is the edge version of Theorems 2.1 and 2.2: using
// the deterministic weak-diameter edge carver of internal/rg as the black
// box, it cuts at most an eps fraction of the edges of the subgraph induced
// by nodes (nil = all of g) so that every remaining connected component has
// bounded strong diameter. The iteration structure mirrors the node version
// with edge counts in place of node counts: the giant-cluster ball grows
// until a radius whose boundary holds at most an eps/2 fraction of the
// ball's edges, and the boundary edges (not nodes) are cut.
//
// Each task carries its own remaining graph, from which every earlier cut
// is absent, so the weak carver, the ball and the component splits all run
// on it as on any graph. The result depends on the node set, not on the
// order of the list. Cancellation is observed before every component task.
func CarveEdgesRGContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*EdgeCarving, error) {
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
	emit := func(t edgeTask, members []int, center int) {
		for _, v := range members {
			out.Assign[t.orig[v]] = out.K
		}
		out.Centers = append(out.Centers, t.orig[center])
		out.K++
	}
	cut := func(t edgeTask, u, v int) {
		u, v = t.orig[u], t.orig[v]
		out.Cut = append(out.Cut, [2]int{min(u, v), max(u, v)})
	}
	ids := allNodes(g.N()) // the host's ids, and every task's local ids
	_, sc := withScratch(ctx)

	// split queues the components of sc's current set within h as tasks
	// of iteration iter. part is an ascending list of h's nodes holding
	// every member of the set, and orig maps h's nodes to host ids.
	var queue []edgeTask
	split := func(h *graph.Graph, orig, part []int, iter int) {
		_, comps := sc.SplitSet(h, part, nil, nil)
		for _, comp := range comps {
			sub, subOrig := sc.InducedSubgraph(h, comp)
			for i, v := range subOrig {
				subOrig[i] = orig[v]
			}
			queue = append(queue, edgeTask{h: sub, orig: subOrig, iter: iter})
		}
	}
	set := sortedSet(nodes)
	sc.MarkSet(g.N(), set)
	split(g, ids, set, 1)

	totalEdges := 0
	for _, t := range queue {
		totalEdges += t.h.M()
	}
	if totalEdges == 0 {
		// Isolated nodes: every node is its own cluster.
		for _, t := range queue {
			emit(t, ids[:1], 0)
		}
		return out, nil
	}
	iterLimit := log2ceil(totalEdges) + 1
	epsWeak := eps / (2 * float64(log2ceil(totalEdges)))
	window := shellWindow(totalEdges, eps)
	congestion := log2ceil(g.N())
	out.Cut = [][2]int{}

	for i := 0; i < len(queue); i++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		t := queue[i]
		queue[i] = edgeTask{} // the queue keeps no finished task's graph alive
		h, local := t.h, ids[:t.h.N()]
		if h.M() == 0 || t.iter > iterLimit {
			emit(t, local, 0)
			continue
		}

		wc, err := rg.CarveEdges(h, nil, epsWeak, m)
		if err != nil {
			return nil, fmt.Errorf("core: weak edge carver: %w", err)
		}

		// Gather sizes over Steiner trees: depth x congestion.
		maxDepth := 0
		for cl, tr := range wc.Carving.Trees {
			d, _ := sc.treeDepth(tr, nil, cl)
			maxDepth = max(maxDepth, d)
		}
		m.Charge("thm21/gather", int64(maxDepth+1)*int64(congestion))

		// A cluster's size is the number of h's edges inside it, whether
		// the weak carver cut them or not.
		assign := wc.Carving.Assign
		sizes := resize(sc.counts, wc.Carving.K)
		clear(sizes)
		for _, u := range local {
			for _, w := range h.Neighbors(u) {
				if u < w && assign[u] == assign[w] {
					sizes[assign[u]]++
				}
			}
		}
		sc.counts = sizes[:0]
		threshold := float64(totalEdges) / math.Exp2(float64(t.iter))
		giant := -1
		for cl, size := range sizes {
			if float64(size) > threshold {
				giant = cl
				break
			}
		}

		if giant < 0 {
			// Commit the weak carver's cuts; recurse on the components.
			for _, e := range wc.Cut {
				cut(t, e[0], e[1])
			}
			h = graph.WithoutEdges(h, wc.Cut)
			sc.MarkAll(h.N())
			split(h, t.orig, local, t.iter+1)
			continue
		}

		// Giant cluster: ball-grow from its tree root, counting per radius
		// the edges with both endpoints within it.
		root := wc.Carving.Centers[giant]
		_, rootDepth := sc.treeDepth(wc.Carving.Trees[giant], assign, giant)
		sc.MarkAll(h.N())
		order := sc.Ball(h, []int{root}, -1)
		edgeAt := make([]int, sc.Dist(order[len(order)-1])+1)
		for _, v := range order {
			for _, u := range h.Neighbors(v) {
				if v < u {
					edgeAt[max(sc.Dist(v), sc.Dist(u))]++
				}
			}
		}
		for d := 1; d < len(edgeAt); d++ {
			edgeAt[d] += edgeAt[d-1]
		}
		maxLayer := len(edgeAt) - 1
		rStart := min(rootDepth, maxLayer)
		rStar := rStart
		for r := rStart; r < maxLayer && r < rStart+window; r++ {
			if float64(edgeAt[r]) >= (1-eps/2)*float64(sizeAt(edgeAt, r+1)) {
				rStar = r
				break
			}
			rStar = r + 1
		}
		m.Charge("thm21/bfs", int64(rStar)+2)

		// The ball, a prefix of the visit order, is emitted and every edge
		// leaving it is cut; the rest splits into the next tasks.
		inBall := len(order)
		for j, v := range order {
			if sc.Dist(v) > rStar {
				inBall = j
				break
			}
		}
		for _, v := range order[:inBall] {
			for _, u := range h.Neighbors(v) {
				if sc.Dist(u) > rStar {
					cut(t, v, u)
				}
			}
		}
		emit(t, order[:inBall], root)
		sc.BeginSet(h.N())
		for _, v := range order[inBall:] {
			sc.Add(v)
		}
		split(h, t.orig, local, t.iter+1)
	}

	slices.SortFunc(out.Cut, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out, nil
}
