package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// registerStub registers a trivial construction (every node its own
// cluster, one color) that charges one round per call, and unregisters it
// when the test ends.
func registerStub(t *testing.T, name string) {
	t.Helper()
	registry.MustRegister(name, func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{Name: name},
			CarveFunc: func(ctx context.Context, g *graph.Graph, eps float64, o registry.RunOptions) (*cluster.Carving, error) {
				o.Meter.Charge("stub", 1)
				assign := make([]int, g.N())
				for i := range assign {
					assign[i] = i
				}
				return &cluster.Carving{Assign: assign, K: g.N()}, nil
			},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, o registry.RunOptions) (*cluster.Decomposition, error) {
				o.Meter.Charge("stub", 1)
				assign := make([]int, g.N())
				color := make([]int, g.N())
				for i := range assign {
					assign[i] = i
				}
				return &cluster.Decomposition{Assign: assign, Color: color, K: g.N(), Colors: 1}, nil
			},
		}
	})
	t.Cleanup(func() { registry.Unregister(name) })
}

// TestRunKindsMeteringAndErrors covers the canonical one-call entry: both
// kinds, metered and unmetered rounds, and the unknown-algorithm and
// invalid-params errors.
func TestRunKindsMeteringAndErrors(t *testing.T) {
	registerStub(t, "test-engine-run")
	g := graph.Path(6)
	e := New(WithWorkers(2))
	ctx := context.Background()

	out, err := e.Run(ctx, g, registry.Params{Algorithm: "test-engine-run", Meter: true})
	if err != nil {
		t.Fatalf("Run(decompose): %v", err)
	}
	if out.Decomposition == nil || out.Carving != nil {
		t.Fatal("decompose outcome shape wrong")
	}
	if out.Params.Kind != registry.KindDecompose {
		t.Errorf("outcome params not normalized: %+v", out.Params)
	}
	if out.Rounds <= 0 {
		t.Error("metered run reports no rounds")
	}

	out, err = e.Run(ctx, g, registry.Params{Algorithm: "test-engine-run", Kind: registry.KindCarve, Eps: 0.5})
	if err != nil {
		t.Fatalf("Run(carve): %v", err)
	}
	if out.Carving == nil || out.Decomposition != nil {
		t.Fatal("carve outcome shape wrong")
	}
	if out.Rounds != 0 {
		t.Error("unmetered run reports rounds")
	}

	if _, err := e.Run(ctx, g, registry.Params{Algorithm: "no-such"}); !errors.Is(err, registry.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm error = %v", err)
	}
	if _, err := e.Run(ctx, g, registry.Params{Algorithm: "test-engine-run", Kind: registry.KindCarve, Eps: math.NaN()}); !errors.Is(err, registry.ErrInvalidParams) {
		t.Errorf("NaN eps error = %v", err)
	}
}

// TestRunIntoAccumulates pins the caller-owned meter entry: each run adds
// its cost to what the meter already holds, two components count as one
// parallel phase, and Outcome.Rounds reports the meter's total.
func TestRunIntoAccumulates(t *testing.T) {
	registerStub(t, "test-engine-into")
	e := New(WithWorkers(2))
	m := rounds.NewMeter()
	p := registry.Params{Algorithm: "test-engine-into"}
	for i, g := range []*graph.Graph{graph.Path(6), graph.DisjointUnion(graph.Path(3), graph.Cycle(4))} {
		out, err := RunInto(context.Background(), e, g, p, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 1); out.Rounds != want || m.Rounds() != want {
			t.Fatalf("run %d: Outcome.Rounds %d, meter %d, want %d", i, out.Rounds, m.Rounds(), want)
		}
	}
}
