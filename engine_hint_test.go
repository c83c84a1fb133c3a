package strongdecomp

import (
	"context"
	"encoding/json"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

// TestEngineMatchesDirectDecompose is the differential guard for the
// engine's connectivity hint and scratch: a connected graph run through
// the engine (one component, hint set, worker scratch) must decompose
// byte-identically to a direct core.DecomposeRGContext call, which has
// neither and splits the graph itself, with the same simulated cost. On a
// disjoint union the engine decomposes each component of its split with
// the hint, which must equal direct calls on the same induced subgraphs
// merged the same way; and a direct call on the union itself, where no
// hint applies, must still split it into a valid strong decomposition.
func TestEngineMatchesDirectDecompose(t *testing.T) {
	e := NewEngine(WithWorkers(2))
	ctx := context.Background()
	for name, g := range map[string]*graph.Graph{
		"gnp":   graph.ConnectedGnp(1200, 5.0/1200, 3),
		"grid":  graph.Grid(30, 20),
		"cycle": graph.Cycle(500),
		"path":  graph.Path(400),
		"union": graph.DisjointUnion(graph.ConnectedGnp(300, 0.02, 5), graph.Grid(9, 14), graph.Cycle(120), graph.Path(60)),
	} {
		t.Run(name, func(t *testing.T) {
			out, err := e.Run(ctx, g, Params{Algorithm: "chang-ghaffari", Meter: true})
			if err != nil {
				t.Fatal(err)
			}
			comps := graph.NewScratch().Components(g, nil)
			pieces := make([]cluster.Piece, len(comps))
			meters := make([]*rounds.Meter, len(comps))
			for i, comp := range comps {
				sub, nodeOf := g, []int(nil)
				if len(comps) > 1 {
					sub, nodeOf = graph.InducedSubgraph(g, comp)
				}
				meters[i] = rounds.NewMeter()
				d, err := core.DecomposeRGContext(ctx, sub, meters[i])
				if err != nil {
					t.Fatal(err)
				}
				pieces[i] = cluster.Piece{D: d, NodeOf: nodeOf}
			}
			want := pieces[0].D
			if len(comps) > 1 {
				if want, err = cluster.MergeDecompositions(g.N(), pieces); err != nil {
					t.Fatal(err)
				}
			}
			// The components run simultaneously: one parallel phase, the
			// max across them.
			wantRounds := rounds.NewMeter()
			for _, m := range meters {
				wantRounds.MergeParallel(m)
			}
			if got, exp := mustJSON(t, out.Decomposition), mustJSON(t, want); got != exp {
				t.Fatalf("engine and direct decompositions differ:\n%s\n%s", got, exp)
			}
			if out.Rounds != wantRounds.Rounds() {
				t.Fatalf("engine charged %d rounds, direct %d", out.Rounds, wantRounds.Rounds())
			}
			if len(comps) > 1 {
				d, err := core.DecomposeRGContext(ctx, g, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := cluster.CheckDecomposition(g, d, g.N(), true); err != nil {
					t.Fatalf("direct decomposition of the union: %v", err)
				}
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
