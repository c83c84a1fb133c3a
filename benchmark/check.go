package main

// Output checks. Each runs in O(n+m) on the client's copy of the graph,
// so every op of every workload is checked, not a sample.

import (
	"fmt"

	"strongdecomp/internal/apps"
	"strongdecomp/internal/graph"
)

// checkDecomposition verifies that assign/color is a decomposition of g:
// every node sits in a cluster id in [0, k), each cluster has one
// colour, no two adjacent clusters share a colour, and, for
// strong-diameter constructions, every cluster induces a connected
// subgraph.
func checkDecomposition(g *graph.Graph, assign, color []int, k int, strong bool) error {
	n := g.N()
	if len(assign) != n {
		return fmt.Errorf("assignment covers %d nodes, graph has %d", len(assign), n)
	}
	if len(color) != k {
		return fmt.Errorf("%d cluster colours for %d clusters", len(color), k)
	}
	for v, c := range assign {
		if c < 0 || c >= k {
			return fmt.Errorf("node %d in cluster %d outside [0,%d)", v, c, k)
		}
	}
	for c, col := range color {
		if col < 0 {
			return fmt.Errorf("cluster %d has negative colour %d", c, col)
		}
	}
	uf := newUnionFind(n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			cu, cv := assign[u], assign[v]
			if cu == cv {
				uf.union(u, v)
				continue
			}
			if color[cu] == color[cv] {
				return fmt.Errorf("adjacent clusters %d and %d (edge %d-%d) share colour %d", cu, cv, u, v, color[cu])
			}
		}
	}
	if !strong {
		return nil
	}
	first := make([]int, k)
	for c := range first {
		first[c] = -1
	}
	for v := 0; v < n; v++ {
		c := assign[v]
		switch {
		case first[c] < 0:
			first[c] = v
		case uf.find(v) != uf.find(first[c]):
			return fmt.Errorf("cluster %d is disconnected: nodes %d and %d have no path inside it", c, first[c], v)
		}
	}
	return nil
}

// checkMIS runs the repository's MIS verifier (independence and
// maximality).
func checkMIS(g *graph.Graph, inMIS []bool) error {
	return apps.VerifyMIS(g, inMIS)
}

// checkColoring runs the repository's colouring verifier against the
// (Δ+1) palette and checks the reported palette size.
func checkColoring(g *graph.Graph, colorOf []int, palette int) error {
	if want := g.MaxDegree() + 1; palette != want {
		return fmt.Errorf("palette size %d, want Δ+1 = %d", palette, want)
	}
	return apps.VerifyColoring(g, colorOf, palette)
}

// checkDiameter checks a 2-sweep diameter answer d against e, the largest
// eccentricity of each component's lowest-numbered node (where the sweep
// starts): the sweep returns the eccentricity of a node at distance e
// from that start, so e <= d, and d is at most the diameter, which is at
// most 2e.
func checkDiameter(g *graph.Graph, d int) error {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, n)
	e := 0
	for s := 0; s < n; s++ {
		if dist[s] >= 0 {
			continue
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			e = max(e, dist[u])
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	if d < e || d > 2*e {
		return fmt.Errorf("diameter %d outside [ecc, 2·ecc] = [%d, %d]", d, e, 2*e)
	}
	return nil
}

// checkSpanner checks that every spanner edge is an edge of g and that
// the spanner connects exactly what g connects.
func checkSpanner(g *graph.Graph, edges [][2]int) error {
	n := g.N()
	sp := newUnionFind(n)
	spComps := n
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || !g.HasEdge(u, v) {
			return fmt.Errorf("spanner edge %d-%d is not an edge of the graph", u, v)
		}
		if sp.union(u, v) {
			spComps--
		}
	}
	full := newUnionFind(n)
	gComps := n
	g.ForEachEdge(func(u, v int) {
		if full.union(u, v) {
			gComps--
		}
	})
	if spComps != gComps {
		return fmt.Errorf("spanner has %d components, graph has %d", spComps, gComps)
	}
	return nil
}

// unionFind is a disjoint-set forest with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b and reports whether they were apart.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}
