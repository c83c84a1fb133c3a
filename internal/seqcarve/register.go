package seqcarve

// Self-registration of the sequential one-ball-at-a-time baseline with the
// algorithm registry. The carving side runs at the fixed eps = 1/2 growth
// argument and ignores the requested boundary parameter, so the
// construction carries no calibrated Table 2 bounds (PaperCarveDiam is
// empty, which excludes it from the eps-carving table).

import (
	"context"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

func init() {
	registry.MustRegister("sequential", func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{
				Name:              "sequential",
				Display:           "sequential-baseline",
				Reference:         "[LS93 seq.]",
				Model:             "deterministic",
				Diameter:          "strong",
				PaperColors:       "O(log n)",
				PaperDecompDiam:   "O(log n)",
				PaperDecompRounds: "O(k·D) (k clusters)",
				Order:             40,
			},
			CarveFunc: func(ctx context.Context, g *graph.Graph, _ float64, o registry.RunOptions) (*cluster.Carving, error) {
				return CarveContext(ctx, g, o.Nodes, o.Meter)
			},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, o registry.RunOptions) (*cluster.Decomposition, error) {
				return core.DecomposeContext(ctx, g, func(ctx context.Context, g *graph.Graph, nodes []int, _ float64, m *rounds.Meter) (*cluster.Carving, error) {
					return CarveContext(ctx, g, nodes, m)
				}, o.Meter)
			},
		}
	})
}
