package apps

// The spanner application, in the spirit of Elkin–Neiman
// (arXiv:1602.05437): a strong-diameter decomposition directly yields a
// sparse spanner. Every cluster keeps a BFS spanning tree of its induced
// subgraph — the strong-diameter guarantee bounds the tree's depth by the
// cluster diameter, so intra-cluster distances stretch by at most 2·D —
// and every adjacent cluster pair keeps exactly one connecting edge, so
// the spanner preserves the connectivity of g. The edge count is at most
// (n − k) tree edges plus one edge per adjacent cluster pair.

import (
	"context"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// Spanner is a subgraph of g extracted from a decomposition: per-cluster
// BFS spanning trees plus one representative edge per adjacent cluster
// pair.
type Spanner struct {
	// Edges lists the spanner's edges as (u, v) pairs with u < v, tree
	// edges first in cluster order, then cross edges.
	Edges [][2]int
	// TreeEdges counts the intra-cluster BFS spanning-tree edges.
	TreeEdges int
	// CrossEdges counts the representative inter-cluster edges, one per
	// adjacent cluster pair.
	CrossEdges int
}

// BuildSpannerContext extracts a spanner from the decomposition by the
// color-by-color template, charging the simulated schedule cost, from
// diam (ColorDiameters of g and d), to the meter. The main loop checks
// ctx between colors; a canceled run fails with an error matching
// registry.ErrCanceled.
func BuildSpannerContext(ctx context.Context, g *graph.Graph, d *cluster.Decomposition, diam []int, m *rounds.Meter) (*Spanner, error) {
	if err := checkShape(g, d, diam); err != nil {
		return nil, err
	}
	sp := &Spanner{}
	members := d.Members()
	visited := make([]bool, g.N())
	queue := make([]int, 0, g.N())
	for color := 0; color < d.Colors; color++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		for cl := 0; cl < d.K; cl++ {
			if d.Color[cl] != color || len(members[cl]) == 0 {
				continue
			}
			// BFS spanning tree of the cluster's induced subgraph. A
			// cluster of a strong-diameter decomposition is connected, so
			// one root reaches every member; a disconnected (adversarial)
			// cluster degrades gracefully to one tree per member component.
			for _, root := range members[cl] {
				if visited[root] {
					continue
				}
				queue = queue[:0]
				queue = append(queue, root)
				visited[root] = true
				for head := 0; head < len(queue); head++ {
					u := queue[head]
					for _, w := range g.Neighbors(u) {
						if visited[w] || d.Assign[w] != cl {
							continue
						}
						visited[w] = true
						sp.Edges = append(sp.Edges, orderedEdge(u, w))
						sp.TreeEdges++
						queue = append(queue, w)
					}
				}
			}
		}
		m.Charge("apps/spanner", colorCost(diam, color))
	}
	// One representative edge per adjacent cluster pair keeps the spanner
	// exactly as connected as g across cluster boundaries.
	crossSeen := make(map[[2]int]bool)
	for u := 0; u < g.N(); u++ {
		cu := d.Assign[u]
		if cu == cluster.Unclustered {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if w < u {
				continue // undirected: visit each edge once
			}
			cw := d.Assign[w]
			if cw == cluster.Unclustered || cu == cw {
				continue
			}
			pair := orderedEdge(cu, cw)
			if crossSeen[pair] {
				continue
			}
			crossSeen[pair] = true
			sp.Edges = append(sp.Edges, orderedEdge(u, w))
			sp.CrossEdges++
		}
	}
	return sp, nil
}

// orderedEdge normalizes an edge to (min, max) form.
func orderedEdge(u, v int) [2]int {
	if u < v {
		return [2]int{u, v}
	}
	return [2]int{v, u}
}
