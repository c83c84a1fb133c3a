package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

// lemma31Bound is the O(log² n / eps) diameter guarantee with the
// implementation's constants: 2·(a + window) where a <= levels · (b-a window)
// and window = ceil(ln 3 / x) + 1, x = eps/(2 log₂ n).
func lemma31Bound(n int, eps float64) int {
	if n <= 1 {
		return 0
	}
	x := eps / (2 * float64(log2ceil(n)))
	window := int(math.Ceil(math.Log(3)/x)) + 1
	levels := log2ceil(n) + 1
	return 2 * (levels + 1) * window
}

func TestCutOrComponentRejectsBadInput(t *testing.T) {
	g := graph.Path(5)
	if _, err := CutOrComponent(g, []int{0, 1}, 0, nil); err == nil {
		t.Fatal("eps 0 accepted")
	}
	if _, err := CutOrComponent(g, nil, 0.5, nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestCutOrComponentTinySets(t *testing.T) {
	g := graph.Path(5)
	res, err := CutOrComponent(g, []int{1, 2, 3}, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsCut || len(res.U) != 3 {
		t.Fatalf("tiny set result %+v", res)
	}
}

// checkLemma31 verifies the outcome contract on a connected node set.
func checkLemma31(t *testing.T, g *graph.Graph, nodes []int, eps float64) *CutResult {
	t.Helper()
	res, err := CutOrComponent(g, nodes, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	nV := len(nodes)
	if res.IsCut {
		if len(res.V1)+len(res.V2)+len(res.Separator) != nV {
			t.Fatalf("cut does not partition: %d+%d+%d != %d",
				len(res.V1), len(res.V2), len(res.Separator), nV)
		}
		if 3*len(res.V1) < nV-2 || 3*len(res.V2) < nV-2 {
			t.Fatalf("unbalanced cut: |V1|=%d |V2|=%d n=%d", len(res.V1), len(res.V2), nV)
		}
		// Non-adjacency of the sides.
		in1 := make(map[int]bool, len(res.V1))
		for _, v := range res.V1 {
			in1[v] = true
		}
		for _, v := range res.V2 {
			for _, w := range g.Neighbors(v) {
				if in1[w] {
					t.Fatalf("cut sides adjacent via %d-%d", v, w)
				}
			}
		}
		return res
	}
	if 3*len(res.U) < nV-2 {
		t.Fatalf("component too small: |U|=%d n=%d", len(res.U), nV)
	}
	if d := graph.StrongDiameter(g, res.U); d < 0 || d > lemma31Bound(nV, eps) {
		t.Fatalf("component diameter %d exceeds bound %d (n=%d)", d, lemma31Bound(nV, eps), nV)
	}
	// Boundary really is the outer neighborhood of U within the set.
	inU := make(map[int]bool, len(res.U))
	for _, v := range res.U {
		inU[v] = true
	}
	inB := make(map[int]bool, len(res.Boundary))
	for _, v := range res.Boundary {
		inB[v] = true
	}
	inSet := make(map[int]bool, nV)
	for _, v := range nodes {
		inSet[v] = true
	}
	for _, v := range nodes {
		if inU[v] || inB[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if inU[w] && inSet[v] {
				t.Fatalf("node %d adjacent to U but not in boundary", v)
			}
		}
	}
	return res
}

func TestCutOrComponentAcrossFamilies(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			comps := graph.Components(g, nil)
			for _, comp := range comps {
				checkLemma31(t, g, comp, 0.5)
			}
		})
	}
}

func TestCutOrComponentFindsCutOnLongPath(t *testing.T) {
	// A long path has huge b-a windows: the lemma must find a balanced
	// sparse cut (with a singleton separator).
	g := graph.Path(4000)
	nodes := make([]int, g.N())
	for i := range nodes {
		nodes[i] = i
	}
	res := checkLemma31(t, g, nodes, 0.5)
	if !res.IsCut {
		t.Fatal("expected a cut on the long path")
	}
	if len(res.Separator) > 2 {
		t.Fatalf("path separator has %d nodes", len(res.Separator))
	}
}

func TestCutOrComponentComponentOnExpanderish(t *testing.T) {
	// Low-diameter graphs have tiny [a,b] windows: component outcome.
	g := graph.Complete(60)
	nodes := make([]int, 60)
	for i := range nodes {
		nodes[i] = i
	}
	res := checkLemma31(t, g, nodes, 0.5)
	if res.IsCut {
		t.Fatal("complete graph should yield a component, not a cut")
	}
}

func TestCutOrComponentChargesRounds(t *testing.T) {
	g := graph.Grid(15, 15)
	nodes := make([]int, g.N())
	for i := range nodes {
		nodes[i] = i
	}
	m := rounds.NewMeter()
	if _, err := CutOrComponent(g, nodes, 0.5, m); err != nil {
		t.Fatal(err)
	}
	if m.Component("lemma31/bfs") == 0 {
		t.Fatalf("no rounds charged: %s", m)
	}
}

func TestImproveDiameterInvariants(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			for _, eps := range []float64{0.5, 0.25} {
				c, err := CarveImprovedContext(context.Background(), g, nil, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := cluster.CheckCarving(g, nil, c, eps, lemma31Bound(g.N(), eps/2)); err != nil {
					t.Fatalf("eps=%v: %v", eps, err)
				}
			}
		})
	}
}

func TestImproveDiameterBeatsThm22OnPathologicalInputs(t *testing.T) {
	// On a long path the Theorem 2.2 carving can leave long components
	// (anything below log³ n is legal); Theorem 3.3's post-processing must
	// bring the diameter down to the log²/eps regime.
	g := graph.Path(3000)
	eps := 0.5
	c, err := CarveImprovedContext(context.Background(), g, nil, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := cluster.MaxStrongDiameter(g, c.Members()); d > lemma31Bound(g.N(), eps/2) {
		t.Fatalf("improved diameter %d exceeds lemma bound %d", d, lemma31Bound(g.N(), eps/2))
	}
}

func TestDecomposeImprovedValid(t *testing.T) {
	for _, name := range []string{"grid", "gnp", "subdivided", "union"} {
		g := testGraphs()[name]
		t.Run(name, func(t *testing.T) {
			d, err := DecomposeImprovedContext(context.Background(), g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.CheckDecomposition(g, d, lemma31Bound(g.N(), 0.25), true); err != nil {
				t.Fatal(err)
			}
			if d.Colors > log2ceil(g.N())+2 {
				t.Fatalf("%d colors", d.Colors)
			}
		})
	}
}

func TestPropertyImproveDiameterOnRandomGraphs(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := 30 + int(nRaw)%100
		g := graph.ConnectedGnp(n, 0.05, int64(seed))
		c, err := CarveImprovedContext(context.Background(), g, nil, 0.5, nil)
		if err != nil {
			return false
		}
		return cluster.CheckCarving(g, nil, c, 0.5, lemma31Bound(n, 0.25)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtract(t *testing.T) {
	got := NewScratch().subtract(6, []int{1, 2, 3, 4, 5}, []int{2}, []int{4, 5})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("subtract = %v", got)
	}
}

func TestThinnestLayer(t *testing.T) {
	sizes := []int{1, 10, 11, 30}
	r, ratio := thinnestLayer(sizes, 0, 2)
	if r != 1 {
		t.Fatalf("thinnest at %d (ratio %f)", r, ratio)
	}
	// Clamped range.
	r, _ = thinnestLayer(sizes, 5, 3)
	if r != 5 {
		t.Fatalf("clamped thinnest = %d", r)
	}
}

func TestRadiusReaching(t *testing.T) {
	sizes := []int{1, 3, 9, 9}
	if r := radiusReaching(sizes, 3); r != 1 {
		t.Fatalf("r = %d", r)
	}
	if r := radiusReaching(sizes, 100); r != 3 {
		t.Fatalf("unreachable target r = %d", r)
	}
}
