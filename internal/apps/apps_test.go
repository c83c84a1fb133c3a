package apps

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	_ "strongdecomp/internal/mpx" // registers the "mpx" construction
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

func decompose(t *testing.T, g *graph.Graph) *cluster.Decomposition {
	t.Helper()
	d, err := core.DecomposeRGContext(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// diameters is ColorDiameters of g and d, failing the test on an error.
func diameters(t *testing.T, g *graph.Graph, d *cluster.Decomposition) []int {
	t.Helper()
	diam, err := ColorDiameters(context.Background(), g, d)
	if err != nil {
		t.Fatal(err)
	}
	return diam
}

func TestMISAcrossFamilies(t *testing.T) {
	tests := map[string]*graph.Graph{
		"path":     graph.Path(200),
		"cycle":    graph.Cycle(256),
		"grid":     graph.Grid(12, 12),
		"gnp":      graph.ConnectedGnp(150, 0.04, 3),
		"star":     graph.Star(50),
		"complete": graph.Complete(30),
		"union":    graph.DisjointUnion(graph.Path(40), graph.Cycle(30)),
	}
	for name, g := range tests {
		t.Run(name, func(t *testing.T) {
			d := decompose(t, g)
			m := rounds.NewMeter()
			mis, err := MISContext(context.Background(), g, d, diameters(t, g, d), m)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyMIS(g, mis); err != nil {
				t.Fatal(err)
			}
			if m.Component("apps/mis") == 0 {
				t.Fatal("no schedule cost charged")
			}
		})
	}
}

func TestMISWithRandomizedDecomposition(t *testing.T) {
	g := graph.Cycle(300)
	alg, err := registry.Lookup("mpx")
	if err != nil {
		t.Fatal(err)
	}
	d, err := alg.Decompose(context.Background(), g, &registry.RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mis, err := MISContext(context.Background(), g, d, diameters(t, g, d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, mis); err != nil {
		t.Fatal(err)
	}
}

func TestMISRejectsSizeMismatch(t *testing.T) {
	g := graph.Path(5)
	d := &cluster.Decomposition{Assign: []int{0}, Color: []int{0}, K: 1, Colors: 1}
	if _, err := MISContext(context.Background(), g, d, nil, nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := ColorGraphContext(context.Background(), g, d, nil, nil); err == nil {
		t.Fatal("size mismatch accepted by ColorGraph")
	}
	for name, d := range map[string]*cluster.Decomposition{
		"color out of range": {Assign: []int{0, 0, 1, 1, 1}, Color: []int{0, 1}, K: 2, Colors: 1},
		"negative color":     {Assign: []int{0, 0, 1, 1, 1}, Color: []int{0, -1}, K: 2, Colors: 1},
		"too few colors":     {Assign: []int{0, 0, 1, 1, 1}, Color: []int{0}, K: 2, Colors: 1},
	} {
		if _, err := ColorDiameters(context.Background(), g, d); err == nil {
			t.Errorf("%s: accepted by ColorDiameters", name)
		}
		if cost := ScheduleCost(g, d); cost != 0 {
			t.Errorf("%s: ScheduleCost = %d, want 0", name, cost)
		}
	}
}

func TestColoringAcrossFamilies(t *testing.T) {
	tests := map[string]*graph.Graph{
		"cycle":    graph.Cycle(256),
		"grid":     graph.Grid(11, 11),
		"gnp":      graph.ConnectedGnp(140, 0.05, 7),
		"complete": graph.Complete(25),
		"star":     graph.Star(40),
	}
	for name, g := range tests {
		t.Run(name, func(t *testing.T) {
			d := decompose(t, g)
			colorOf, err := ColorGraphContext(context.Background(), g, d, diameters(t, g, d), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyColoring(g, colorOf, g.MaxDegree()+1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVerifyMISCatchesViolations(t *testing.T) {
	g := graph.Path(3)
	if err := VerifyMIS(g, []bool{true, true, false}); err == nil {
		t.Fatal("dependent set accepted")
	}
	if err := VerifyMIS(g, []bool{true, false, false}); err == nil {
		t.Fatal("non-maximal set accepted")
	}
	if err := VerifyMIS(g, []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyColoringCatchesViolations(t *testing.T) {
	g := graph.Path(3)
	if err := VerifyColoring(g, []int{0, 0, 1}, 3); err == nil {
		t.Fatal("improper coloring accepted")
	}
	if err := VerifyColoring(g, []int{0, 1, 5}, 3); err == nil {
		t.Fatal("palette overflow accepted")
	}
	if err := VerifyColoring(g, []int{0, 1, 0}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMISOnDisconnectedGraphs(t *testing.T) {
	// union: path 0-1-2, isolated node 3, edge 4-5
	g := graph.DisjointUnion(graph.Path(3), graph.Path(1), graph.Path(2))
	if err := VerifyMIS(g, []bool{true, false, true, true, true, false}); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
	// Isolated nodes must always be in the MIS.
	if err := VerifyMIS(g, []bool{true, false, true, false, true, false}); err == nil {
		t.Fatal("MIS omitting an isolated node accepted")
	}
	// An adjacent pair in a far component must still be caught.
	if err := VerifyMIS(g, []bool{true, false, true, true, true, true}); err == nil {
		t.Fatal("adjacent pair in MIS accepted")
	}
	// Non-maximality confined to one component must still be caught.
	if err := VerifyMIS(g, []bool{true, false, false, true, true, false}); err == nil {
		t.Fatal("non-maximal MIS accepted")
	}
	// Length mismatch is a shape error, not a pass.
	if err := VerifyMIS(g, []bool{true, false}); err == nil {
		t.Fatal("short membership vector accepted")
	}
}

func TestVerifyColoringOnDisconnectedGraphs(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(4), graph.Path(1), graph.Path(3))
	if err := VerifyColoring(g, []int{0, 1, 0, 1, 0, 0, 1, 0}, g.MaxDegree()+1); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}
	// Negative and overflowing colors anywhere — including the isolated
	// node — are out of range.
	if err := VerifyColoring(g, []int{0, 1, 0, 1, -1, 0, 1, 0}, g.MaxDegree()+1); err == nil {
		t.Fatal("negative color accepted")
	}
	if err := VerifyColoring(g, []int{0, 1, 0, 1, 7, 0, 1, 0}, g.MaxDegree()+1); err == nil {
		t.Fatal("color above palette accepted")
	}
	// An improper edge inside the last component must still be caught.
	if err := VerifyColoring(g, []int{0, 1, 0, 1, 0, 0, 1, 1}, g.MaxDegree()+1); err == nil {
		t.Fatal("improper edge in far component accepted")
	}
}

func TestScheduleCostPositive(t *testing.T) {
	g := graph.Cycle(128)
	d := decompose(t, g)
	if c := ScheduleCost(g, d); c <= 0 {
		t.Fatalf("schedule cost %d", c)
	}
}

func TestPropertyMISOnRandomGraphs(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := 20 + int(nRaw)%100
		g := graph.ConnectedGnp(n, 0.06, int64(seed))
		d, err := core.DecomposeRGContext(context.Background(), g, nil)
		if err != nil {
			return false
		}
		mis, err := MISContext(context.Background(), g, d, diameters(t, g, d), nil)
		if err != nil {
			return false
		}
		colorOf, err := ColorGraphContext(context.Background(), g, d, diameters(t, g, d), nil)
		if err != nil {
			return false
		}
		return VerifyMIS(g, mis) == nil && VerifyColoring(g, colorOf, g.MaxDegree()+1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTemplateChargesScheduleCost pins the per-color charge of every
// application: each charges twice the largest strong cluster diameter of
// a color plus 2, so its total equals ScheduleCost, and the totals on two
// multi-color mpx decompositions are pinned values.
func TestTemplateChargesScheduleCost(t *testing.T) {
	alg, err := registry.Lookup("mpx")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		colors int
		cost   int
	}{
		{"grid", graph.Grid(12, 12), 3, 60},
		{"union", graph.DisjointUnion(graph.Path(40), graph.Cycle(30), graph.Grid(5, 7)), 3, 76},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := alg.Decompose(context.Background(), tc.g, &registry.RunOptions{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if d.Colors != tc.colors {
				t.Fatalf("mpx used %d colors, want %d", d.Colors, tc.colors)
			}
			if c := ScheduleCost(tc.g, d); c != tc.cost {
				t.Fatalf("ScheduleCost = %d, want %d", c, tc.cost)
			}
			ctx := context.Background()
			mis, col, sp := rounds.NewMeter(), rounds.NewMeter(), rounds.NewMeter()
			if _, err := MISContext(ctx, tc.g, d, diameters(t, tc.g, d), mis); err != nil {
				t.Fatal(err)
			}
			if _, err := ColorGraphContext(ctx, tc.g, d, diameters(t, tc.g, d), col); err != nil {
				t.Fatal(err)
			}
			if _, err := BuildSpannerContext(ctx, tc.g, d, diameters(t, tc.g, d), sp); err != nil {
				t.Fatal(err)
			}
			for app, m := range map[string]*rounds.Meter{"mis": mis, "coloring": col, "spanner": sp} {
				if m.Rounds() != int64(tc.cost) {
					t.Errorf("%s charged %d rounds, want %d", app, m.Rounds(), tc.cost)
				}
			}
		})
	}
}

// countdownCtx is a context that reports Canceled from the n-th call of
// Err on: a request canceled while a loop runs, as the loop's context
// checks see it, with no timing involved.
type countdownCtx struct {
	context.Context
	n, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCanceledMISStopsWithinOneCluster: a served MIS request first
// computes the per-color diameters, one BFS per cluster member. Canceled
// after the first cluster of a one-color decomposition with 40 clusters,
// it returns at the next check, before a second cluster's work, with an
// error matching registry.ErrCanceled.
func TestCanceledMISStopsWithinOneCluster(t *testing.T) {
	parts := make([]*graph.Graph, 40)
	for i := range parts {
		parts[i] = graph.Path(25)
	}
	g := graph.DisjointUnion(parts...)
	d := &cluster.Decomposition{Assign: make([]int, g.N()), Color: make([]int, len(parts)), K: len(parts), Colors: 1}
	for v := range d.Assign {
		d.Assign[v] = v / 25
	}
	if diam := diameters(t, g, d); len(diam) != 1 || diam[0] != 24 {
		t.Fatalf("color diameters %v, want [24]", diam)
	}
	ctx := &countdownCtx{Context: context.Background(), n: 2}
	_, err := ColorDiameters(ctx, g, d)
	if !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ctx.calls != 2 {
		t.Fatalf("checked the context %d times, want 2: one cluster, then the cancellation", ctx.calls)
	}
	if _, err := MISContext(ctx, g, d, []int{24}, nil); !errors.Is(err, registry.ErrCanceled) {
		t.Fatalf("MISContext after cancellation: err = %v, want ErrCanceled", err)
	}
}
