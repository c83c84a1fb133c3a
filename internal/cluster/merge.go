package cluster

import "fmt"

// Piece is a decomposition or carving computed on an induced subgraph,
// together with the mapping from subgraph node IDs back to host-graph node
// IDs (NodeOf[local] = host). The Engine decomposes connected components
// independently — in the distributed model they literally run in parallel —
// and merges the pieces back into a host-graph result.
type Piece struct {
	D      *Decomposition
	C      *Carving
	NodeOf []int
}

// MergeDecompositions combines per-component decompositions into one
// decomposition of an n-node host graph. Cluster IDs are offset per piece;
// colors are reused across pieces, which is sound because distinct
// components are non-adjacent, so the merged color count is the maximum
// over pieces rather than the sum.
func MergeDecompositions(n int, pieces []Piece) (*Decomposition, error) {
	out := &Decomposition{Assign: unclustered(n)}
	for _, p := range pieces {
		if p.D == nil {
			return nil, fmt.Errorf("cluster: merge piece without decomposition")
		}
		var err error
		if out.Centers, err = mergeAssign(out.Assign, out.Centers, out.K, p.D.Assign, p.D.Centers, p.NodeOf); err != nil {
			return nil, err
		}
		out.Color = append(out.Color, p.D.Color...)
		out.K += p.D.K
		out.Colors = max(out.Colors, p.D.Colors)
	}
	for v, cl := range out.Assign {
		if cl == Unclustered {
			return nil, fmt.Errorf("cluster: merge left node %d unassigned", v)
		}
	}
	return out, nil
}

// MergeCarvings combines per-component carvings into one carving of an
// n-node host graph; nodes covered by no piece stay Unclustered (dead).
// Optional per-cluster Steiner trees are dropped: their node IDs are
// subgraph-local and no current caller consumes them across a merge.
func MergeCarvings(n int, pieces []Piece) (*Carving, error) {
	out := &Carving{Assign: unclustered(n)}
	for _, p := range pieces {
		if p.C == nil {
			return nil, fmt.Errorf("cluster: merge piece without carving")
		}
		var err error
		if out.Centers, err = mergeAssign(out.Assign, out.Centers, out.K, p.C.Assign, p.C.Centers, p.NodeOf); err != nil {
			return nil, err
		}
		out.K += p.C.K
	}
	return out, nil
}

// unclustered returns an n-node assignment with every node Unclustered.
func unclustered(n int) []int {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = Unclustered
	}
	return assign
}

// mergeAssign is the assignment merge both kinds share: it writes one
// piece's clusters into the host assignment with their IDs offset by base
// (local Unclustered nodes stay Unclustered), and returns centers with the
// piece's centers appended as host IDs.
func mergeAssign(assign, centers []int, base int, local, localCenters, nodeOf []int) ([]int, error) {
	if len(local) != len(nodeOf) {
		return nil, fmt.Errorf("cluster: merge piece has %d assignments for %d nodes", len(local), len(nodeOf))
	}
	for v, cl := range local {
		if cl == Unclustered {
			continue
		}
		host := nodeOf[v]
		if host < 0 || host >= len(assign) {
			return nil, fmt.Errorf("cluster: merge node %d outside host graph", host)
		}
		if assign[host] != Unclustered {
			return nil, fmt.Errorf("cluster: merge pieces overlap at node %d", host)
		}
		assign[host] = base + cl
	}
	for _, c := range localCenters {
		if c >= 0 && c < len(nodeOf) {
			c = nodeOf[c]
		}
		centers = append(centers, c)
	}
	return centers, nil
}
