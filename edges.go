package strongdecomp

import (
	"context"

	"strongdecomp/internal/apps"
	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
)

// EdgeCarving is the edge-version ball-carving result: every node is
// assigned to a cluster and at most an ε fraction of the edges is cut;
// distinct clusters have no remaining edge between them.
type EdgeCarving = core.EdgeCarving

// BallCarveEdges computes the edge version of the paper's ball carving
// (stated alongside Table 2: "we remove at most an ε fraction of the edges,
// instead of removing nodes"). Every node ends in a cluster; each cluster is
// connected with bounded diameter in the remaining graph. Only the
// deterministic Chang–Ghaffari construction is implemented for edges.
func BallCarveEdges(g *Graph, eps float64, opts ...Option) (*EdgeCarving, error) {
	return BallCarveEdgesContext(context.Background(), g, eps, opts...)
}

// BallCarveEdgesContext is BallCarveEdges with cancellation and deadline
// support; a canceled run returns an error matching ErrCanceled.
func BallCarveEdgesContext(ctx context.Context, g *Graph, eps float64, opts ...Option) (*EdgeCarving, error) {
	p, meter := buildParams(KindCarve, eps, opts)
	if err := p.ValidateFor(g.N()); err != nil {
		return nil, err
	}
	return core.CarveEdgesRGContext(ctx, g, p.Nodes, eps, meter)
}

// VerifyEdgeCarving checks the edge-carving contract: full assignment, cut
// fraction at most eps, no remaining inter-cluster edge, and per-cluster
// connectivity (with diameter at most maxDiam in the remaining graph when
// maxDiam >= 0).
func VerifyEdgeCarving(g *Graph, ec *EdgeCarving, eps float64, maxDiam int) error {
	return cluster.CheckEdgeCarving(g, nil, ec.Assign, ec.K, ec.Cut, eps, maxDiam)
}

// MIS computes a deterministic maximal independent set by processing a
// network decomposition color by color — the paper's motivating application
// template. The attached meter (if any) receives the C·D schedule cost.
func MIS(g *Graph, d *Decomposition, opts ...Option) ([]bool, error) {
	_, meter := buildParams(KindDecompose, 0, opts)
	diam, err := apps.ColorDiameters(context.Background(), g, d)
	if err != nil {
		return nil, err
	}
	return apps.MISContext(context.Background(), g, d, diam, meter)
}

// VerifyMIS checks independence and maximality of a candidate MIS.
func VerifyMIS(g *Graph, inMIS []bool) error { return apps.VerifyMIS(g, inMIS) }

// ColorGraph computes a (Δ+1) vertex coloring of g by the color-by-color
// template over a network decomposition.
func ColorGraph(g *Graph, d *Decomposition, opts ...Option) ([]int, error) {
	_, meter := buildParams(KindDecompose, 0, opts)
	diam, err := apps.ColorDiameters(context.Background(), g, d)
	if err != nil {
		return nil, err
	}
	return apps.ColorGraphContext(context.Background(), g, d, diam, meter)
}

// VerifyColoring checks that a coloring is proper and fits in maxColors.
func VerifyColoring(g *Graph, colorOf []int, maxColors int) error {
	return apps.VerifyColoring(g, colorOf, maxColors)
}

// ScheduleCost returns the C·D color-by-color processing cost of a
// decomposition — the quantity the paper's scheduling template optimizes.
func ScheduleCost(g *Graph, d *Decomposition) int { return apps.ScheduleCost(g, d) }
