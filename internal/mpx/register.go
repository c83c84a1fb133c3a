package mpx

// Self-registration of the MPX / Elkin–Neiman randomized strong-diameter
// construction with the algorithm registry.

import (
	"context"
	"math/rand"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

func init() {
	registry.MustRegister("mpx", func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{
				Name:              "mpx",
				Display:           "mpx-elkin-neiman",
				Reference:         "[MPX13, EN16]",
				Model:             "randomized",
				Diameter:          "strong",
				PaperColors:       "O(log n)",
				PaperCarveDiam:    "O(log n / eps)",
				PaperCarveRounds:  "O(log n / eps)",
				PaperDecompDiam:   "O(log n)",
				PaperDecompRounds: "O(log^2 n)",
				Order:             30,
			},
			CarveFunc: func(ctx context.Context, g *graph.Graph, eps float64, o registry.RunOptions) (*cluster.Carving, error) {
				return CarveContext(ctx, g, o.Nodes, eps, rand.New(rand.NewSource(o.Seed)), o.Meter)
			},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, o registry.RunOptions) (*cluster.Decomposition, error) {
				// One generator across all colours, so each race draws
				// where the previous one stopped.
				rng := rand.New(rand.NewSource(o.Seed))
				return core.DecomposeContext(ctx, g, func(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
					return CarveContext(ctx, g, nodes, eps, rng, m)
				}, o.Meter)
			},
		}
	})
}
