package cluster

import (
	"fmt"

	"strongdecomp/internal/graph"
)

// CheckEdgeCut verifies the properties shared by weak and strong
// edge-version carvings of the subgraph induced by nodes (nil = all of g):
//
//   - every node of the subgraph is assigned to a cluster (no node dies);
//   - at most an eps fraction of the subgraph's edges is cut;
//   - every remaining (uncut) edge joins two nodes of the same cluster.
func CheckEdgeCut(g *graph.Graph, nodes []int, assign []int, k int, cut [][2]int, eps float64) error {
	if len(assign) != g.N() {
		return fmt.Errorf("edge carving: assign length %d, want %d", len(assign), g.N())
	}
	if nodes == nil {
		nodes = make([]int, g.N())
		for i := range nodes {
			nodes[i] = i
		}
	}
	inSet := make([]bool, g.N())
	for _, v := range nodes {
		inSet[v] = true
	}
	seen := make([]bool, k)
	for _, v := range nodes {
		cl := assign[v]
		if cl < 0 || cl >= k {
			return fmt.Errorf("edge carving: node %d unassigned or out of range (%d)", v, cl)
		}
		seen[cl] = true
	}
	for cl, ok := range seen {
		if !ok {
			return fmt.Errorf("edge carving: cluster %d empty", cl)
		}
	}
	for _, e := range cut {
		if !g.HasEdge(e[0], e[1]) {
			return fmt.Errorf("edge carving: cut edge (%d,%d) not in graph", e[0], e[1])
		}
		if !inSet[e[0]] || !inSet[e[1]] {
			return fmt.Errorf("edge carving: cut edge (%d,%d) outside the subgraph", e[0], e[1])
		}
	}
	// The edge budget counts the subgraph's edges that the remaining
	// graph has lost, so a pair listed twice counts once.
	rem := graph.WithoutEdges(g, cut)
	total, kept := 0, 0
	for _, v := range nodes {
		for _, u := range g.Neighbors(v) {
			if v < u && inSet[u] {
				total++
			}
		}
		for _, u := range rem.Neighbors(v) {
			if v >= u || !inSet[u] {
				continue
			}
			kept++
			if assign[v] != assign[u] {
				return fmt.Errorf("edge carving: remaining edge (%d,%d) crosses clusters %d,%d",
					v, u, assign[v], assign[u])
			}
		}
	}
	if total > 0 {
		frac := float64(total-kept) / float64(total)
		if frac > eps+1.0/float64(total)+1e-9 {
			return fmt.Errorf("edge carving: cut fraction %.4f exceeds eps %.4f", frac, eps)
		}
	}
	return nil
}

// CheckEdgeCarving verifies a *strong* edge-version ball carving: the shared
// CheckEdgeCut properties plus connectivity of every cluster in the
// remaining graph and, when maxDiam >= 0, its diameter bound there.
func CheckEdgeCarving(g *graph.Graph, nodes []int, assign []int, k int, cut [][2]int, eps float64, maxDiam int) error {
	if err := CheckEdgeCut(g, nodes, assign, k, cut, eps); err != nil {
		return err
	}
	if nodes == nil {
		nodes = make([]int, g.N())
		for i := range nodes {
			nodes[i] = i
		}
	}
	rem := graph.WithoutEdges(g, cut)
	members := make([][]int, k)
	for _, v := range nodes {
		members[assign[v]] = append(members[assign[v]], v)
	}
	for cl, ms := range members {
		d := graph.StrongDiameter(rem, ms)
		if d < 0 {
			return fmt.Errorf("edge carving: cluster %d disconnected in the remaining graph", cl)
		}
		if maxDiam >= 0 && d > maxDiam {
			return fmt.Errorf("edge carving: cluster %d diameter %d exceeds %d", cl, d, maxDiam)
		}
	}
	return nil
}
