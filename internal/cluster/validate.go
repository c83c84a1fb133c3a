package cluster

import (
	"fmt"

	"strongdecomp/internal/graph"
)

// This file implements the correctness oracles. They are deliberately
// written as independent, brute-force re-derivations of each property so the
// algorithms cannot share a bug with their validator.

// CheckCarving verifies the defining properties of a ball carving of the
// alive subgraph of g (alive == nil means the whole graph):
//
//   - assignment shape: cluster ids are dense in [0, K), only alive nodes
//     are assigned;
//   - dead fraction <= eps (+ slack for integer rounding of one node);
//   - distinct clusters are non-adjacent;
//   - if maxStrongDiam >= 0, each cluster induces a connected subgraph of
//     diameter <= maxStrongDiam.
func CheckCarving(g *graph.Graph, alive []bool, c *Carving, eps float64, maxStrongDiam int) error {
	if len(c.Assign) != g.N() {
		return fmt.Errorf("carving: assign length %d, want %d", len(c.Assign), g.N())
	}
	seen := make([]bool, c.K)
	total, dead := 0, 0
	for v, cl := range c.Assign {
		if alive != nil && !alive[v] {
			if cl != Unclustered {
				return fmt.Errorf("carving: non-alive node %d assigned to %d", v, cl)
			}
			continue
		}
		total++
		if cl == Unclustered {
			dead++
			continue
		}
		if cl < 0 || cl >= c.K {
			return fmt.Errorf("carving: node %d has cluster %d out of [0,%d)", v, cl, c.K)
		}
		seen[cl] = true
	}
	for cl, ok := range seen {
		if !ok {
			return fmt.Errorf("carving: cluster %d is empty", cl)
		}
	}
	if total > 0 {
		frac := float64(dead) / float64(total)
		// One extra node of slack absorbs the integer rounding that the
		// paper's fractional bounds allow.
		slack := 1.0 / float64(total)
		if frac > eps+slack+1e-9 {
			return fmt.Errorf("carving: dead fraction %.4f exceeds eps %.4f", frac, eps)
		}
	}
	if err := checkNonAdjacent(g, c.Assign); err != nil {
		return err
	}
	if maxStrongDiam >= 0 {
		for cl, members := range c.Members() {
			d := graph.StrongDiameter(g, members)
			if d < 0 {
				return fmt.Errorf("carving: cluster %d induces a disconnected subgraph", cl)
			}
			if d > maxStrongDiam {
				return fmt.Errorf("carving: cluster %d strong diameter %d exceeds %d", cl, d, maxStrongDiam)
			}
		}
	}
	return nil
}

// CheckWeakCarving verifies a weak-diameter carving: assignment shape, dead
// fraction, non-adjacency, Steiner trees valid in g with depth <= maxDepth,
// every member a tree node, and per-edge tree congestion <= maxCongestion.
func CheckWeakCarving(g *graph.Graph, alive []bool, c *Carving, eps float64, maxDepth, maxCongestion int) error {
	if err := CheckCarving(g, alive, c, eps, -1); err != nil {
		return err
	}
	if len(c.Trees) != c.K {
		return fmt.Errorf("weak carving: %d trees for %d clusters", len(c.Trees), c.K)
	}
	members := c.Members()
	mark := make([]bool, g.N())
	congestion := make(map[[2]int]int)
	for cl, t := range c.Trees {
		if t == nil {
			return fmt.Errorf("weak carving: cluster %d has no tree", cl)
		}
		if err := t.validate(g, mark); err != nil {
			return fmt.Errorf("weak carving: cluster %d: %w", cl, err)
		}
		for _, v := range t.Nodes {
			mark[v] = true
		}
		for _, v := range members[cl] {
			if !mark[v] {
				return fmt.Errorf("weak carving: member %d of cluster %d not in tree", v, cl)
			}
		}
		for _, v := range t.Nodes {
			mark[v] = false
		}
		if maxDepth >= 0 {
			if d := t.Depth(); d > maxDepth {
				return fmt.Errorf("weak carving: cluster %d tree depth %d exceeds %d", cl, d, maxDepth)
			}
		}
		for i := 1; i < len(t.Nodes); i++ {
			u, w := t.Nodes[i], t.Nodes[t.Parent[i]]
			if u > w {
				u, w = w, u
			}
			congestion[[2]int{u, w}]++
		}
	}
	if maxCongestion >= 0 {
		for e, c := range congestion {
			if c > maxCongestion {
				return fmt.Errorf("weak carving: edge (%d,%d) used by %d trees, max %d", e[0], e[1], c, maxCongestion)
			}
		}
	}
	return nil
}

// CheckDecomposition verifies a (C, D) network decomposition of g:
//
//   - every node is assigned, cluster ids dense in [0, K);
//   - cluster colors in [0, Colors);
//   - same-color clusters are non-adjacent;
//   - if maxDiam >= 0: if strong, each cluster's induced diameter is
//     <= maxDiam; otherwise its weak (host graph) diameter is <= maxDiam.
func CheckDecomposition(g *graph.Graph, d *Decomposition, maxDiam int, strong bool) error {
	if len(d.Assign) != g.N() {
		return fmt.Errorf("decomposition: assign length %d, want %d", len(d.Assign), g.N())
	}
	if len(d.Color) != d.K {
		return fmt.Errorf("decomposition: %d colors for %d clusters", len(d.Color), d.K)
	}
	seen := make([]bool, d.K)
	for v, cl := range d.Assign {
		if cl < 0 || cl >= d.K {
			return fmt.Errorf("decomposition: node %d unassigned or out of range (%d)", v, cl)
		}
		seen[cl] = true
	}
	for cl, ok := range seen {
		if !ok {
			return fmt.Errorf("decomposition: cluster %d is empty", cl)
		}
	}
	for cl, col := range d.Color {
		if col < 0 || col >= d.Colors {
			return fmt.Errorf("decomposition: cluster %d color %d out of [0,%d)", cl, col, d.Colors)
		}
	}
	// Same-color clusters must be non-adjacent.
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			cu, cv := d.Assign[u], d.Assign[v]
			if cu != cv && d.Color[cu] == d.Color[cv] {
				return fmt.Errorf("decomposition: adjacent clusters %d,%d share color %d (edge %d-%d)",
					cu, cv, d.Color[cu], u, v)
			}
		}
	}
	if maxDiam >= 0 {
		for cl, members := range d.Members() {
			var diam int
			if strong {
				diam = graph.StrongDiameter(g, members)
				if diam < 0 {
					return fmt.Errorf("decomposition: cluster %d induces a disconnected subgraph", cl)
				}
			} else {
				diam = graph.WeakDiameter(g, nil, members)
				if diam < 0 {
					return fmt.Errorf("decomposition: cluster %d weakly disconnected", cl)
				}
			}
			if diam > maxDiam {
				return fmt.Errorf("decomposition: cluster %d diameter %d exceeds %d", cl, diam, maxDiam)
			}
		}
	}
	return nil
}

// MaxStrongDiameter returns the maximum induced diameter over all clusters
// of the carving, or -1 if some cluster is disconnected.
func MaxStrongDiameter(g *graph.Graph, members [][]int) int {
	max := 0
	for _, ms := range members {
		d := graph.StrongDiameter(g, ms)
		if d < 0 {
			return -1
		}
		if d > max {
			max = d
		}
	}
	return max
}

// MaxWeakDiameter returns the maximum weak diameter over all clusters, or -1
// if some cluster is disconnected in the host graph.
func MaxWeakDiameter(g *graph.Graph, members [][]int) int {
	max := 0
	for _, ms := range members {
		d := graph.WeakDiameter(g, nil, ms)
		if d < 0 {
			return -1
		}
		if d > max {
			max = d
		}
	}
	return max
}

func checkNonAdjacent(g *graph.Graph, assign []int) error {
	for u := 0; u < g.N(); u++ {
		if assign[u] == Unclustered {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if assign[v] == Unclustered {
				continue
			}
			if assign[u] != assign[v] {
				return fmt.Errorf("carving: clusters %d and %d adjacent via edge %d-%d",
					assign[u], assign[v], u, v)
			}
		}
	}
	return nil
}
