package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// CutResult is the outcome of Lemma 3.1 on a connected node set V.
type CutResult struct {
	// IsCut reports which branch was taken.
	IsCut bool

	// Balanced sparse cut branch: V1 and V2 are non-adjacent, each holding
	// at least |V|/3 nodes; Separator = V \ (V1 ∪ V2) is small
	// (O(eps·|V|/log |V|)).
	V1, V2, Separator []int

	// Large small-diameter component branch: U has at least |V|/3 nodes and
	// strong diameter O(log²|V|/eps); Boundary is the set of nodes of V\U
	// adjacent to U (small).
	U, Boundary []int
}

// CutOrComponent implements Lemma 3.1: on the connected node set nodes of g
// it returns either a balanced sparse cut or a large small-diameter
// component. The implementation follows the paper's halving scheme: maintain
// a set S (initially V); per iteration compute the radii a and b at which
// the BFS ball around S reaches |V|/3 and 2|V|/3 nodes; if the [a, b] window
// is wide, cut at its thinnest layer; otherwise halve S by the in-order of a
// BFS tree rooted at the minimum-id node, keeping the half with the smaller
// a. When S is a single node, the thinnest layer in a window above a yields
// the component.
func CutOrComponent(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*CutResult, error) {
	return NewScratch().cutOrComponent(g, nodes, eps, m)
}

// cutOrComponent is CutOrComponent on the scratch's stamped state: every
// BFS is restricted to nodes and touches only what it reaches.
func (sc *Scratch) cutOrComponent(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*CutResult, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: eps %v outside (0, 1]", eps)
	}
	nV := len(nodes)
	if nV == 0 {
		return nil, fmt.Errorf("core: empty node set")
	}
	if nV <= 3 {
		return &CutResult{U: append([]int(nil), nodes...)}, nil
	}
	sc.MarkSet(g.N(), nodes)

	// Thinness target x: shells of relative size x = eps / (2·log₂ n) match
	// the paper's O(eps·n / log n) bounds. Window lengths guarantee a layer
	// of ratio <= e^x exists (ball sizes within a window span a factor <= 3).
	x := eps / (2 * float64(log2ceil(nV)))
	window := int(math.Ceil(math.Log(3)/x)) + 1

	// Deterministic halving order: pre-order of a BFS tree from the
	// min-id node. S starts as all of V in that order, so each half of
	// it is a contiguous run of the order.
	s := sc.Preorder(g, slices.Min(nodes), sc.order[:0])
	sc.order = s
	for len(s) > 1 {
		sizes := sc.Layers(g, s)
		maxLayer := len(sizes) - 1
		a := radiusReaching(sizes, (nV+2)/3)
		b := radiusReaching(sizes, (2*nV+2)/3)
		m.Charge("lemma31/bfs", int64(maxLayer)+1)

		if b-a >= window {
			// Wide window: cut at the thinnest layer r* in [a, b-2].
			rStar, _ := thinnestLayer(sizes, a, b-2)
			var v1, v2, sep []int
			for _, v := range nodes {
				switch d := sc.Val(v); {
				case sc.Reached(v) && d <= rStar:
					v1 = append(v1, v)
				case sc.Reached(v) && d == rStar+1:
					sep = append(sep, v)
				default:
					v2 = append(v2, v)
				}
			}
			return &CutResult{IsCut: true, V1: v1, V2: v2, Separator: sep}, nil
		}

		// Narrow window: halve S, keep the half whose ball reaches |V|/3
		// sooner.
		half := (len(s) + 1) / 2
		s1, s2 := s[:half], s[half:]
		a1 := radiusReaching(sc.Layers(g, s1), (nV+2)/3)
		a2 := radiusReaching(sc.Layers(g, s2), (nV+2)/3)
		m.Charge("lemma31/bfs", int64(maxLayer)+1)
		if a1 <= a2 {
			s = s1
		} else {
			s = s2
		}
	}

	// S = {v}: scan the window above a for the thinnest layer.
	sizes := sc.Layers(g, s)
	a := radiusReaching(sizes, (nV+2)/3)
	hi := a + window
	if hi > len(sizes)-1 {
		hi = len(sizes) - 1
	}
	rStar, _ := thinnestLayer(sizes, a, hi)
	m.Charge("lemma31/bfs", int64(len(sizes)))

	inU := func(w int) bool { return sc.Reached(w) && sc.Val(w) <= rStar }
	var u, boundary []int
	for _, w := range nodes {
		if inU(w) {
			u = append(u, w)
		}
	}
	for _, w := range nodes {
		if inU(w) {
			continue
		}
		for _, z := range g.Neighbors(w) {
			if inU(z) {
				boundary = append(boundary, w)
				break
			}
		}
	}
	return &CutResult{U: u, Boundary: boundary}, nil
}

// ImproveDiameterContext is the Theorem 3.2 transformation: given any
// strong-diameter ball carving algorithm A1, it produces a strong-diameter
// ball carving whose clusters have diameter O(log² n / eps), removing at
// most an eps fraction of the nodes. Per recursion level it runs A1 with a
// boundary parameter reduced by the recursion depth, applies Lemma 3.1 to
// every cluster, and recurses into the cut sides or the remainder away from
// an emitted component. Every branch shrinks by a factor 2/3, so the
// recursion depth is O(log n). The context is checked before every
// recursion task and inside the carver.
func ImproveDiameterContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, carver CtxStrongCarver, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: eps %v outside (0, 1]", eps)
	}
	if nodes == nil {
		nodes = allNodes(g.N())
	}
	co := newCollector(g.N())
	if len(nodes) == 0 {
		return co.carving(), nil
	}
	ctx, sc := withScratch(ctx)
	total := len(nodes)
	// Recursion shrinks sets by 2/3 per level.
	levels := int(math.Ceil(math.Log(float64(total))/math.Log(1.5))) + 1
	epsCarve := eps / (4 * float64(levels))
	epsLemma := eps / 2

	type task struct {
		comp  []int
		level int
	}
	var queue []task
	for _, comp := range sc.ComponentsOf(g, sortedSet(nodes)) {
		queue = append(queue, task{comp: comp, level: 0})
	}
	for len(queue) > 0 {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		t := queue[0]
		queue = queue[1:]
		s := t.comp
		if len(s) == 0 {
			continue
		}
		if len(s) <= 3 || t.level > levels {
			co.emit(s, s[0])
			continue
		}
		carved, err := carver(ctx, g, s, epsCarve, m)
		if err != nil {
			return nil, fmt.Errorf("core: improve: carver: %w", err)
		}
		for _, members := range carved.Members() {
			if len(members) == 0 {
				continue
			}
			res, err := sc.cutOrComponent(g, members, epsLemma, m)
			if err != nil {
				return nil, err
			}
			// Members lists, and the sides and rest cut from them in
			// their order, are ascending, as ComponentsOf requires.
			if res.IsCut {
				for _, side := range [][]int{res.V1, res.V2} {
					for _, comp := range sc.ComponentsOf(g, side) {
						queue = append(queue, task{comp: comp, level: t.level + 1})
					}
				}
				continue
			}
			co.emit(res.U, res.U[0])
			rest := sc.subtract(g.N(), members, res.U, res.Boundary)
			for _, comp := range sc.ComponentsOf(g, rest) {
				queue = append(queue, task{comp: comp, level: t.level + 1})
			}
		}
	}
	return co.carving(), nil
}

// CarveImprovedContext is Theorem 3.3: ImproveDiameterContext instantiated
// with the Theorem 2.2 carver, achieving strong diameter O(log² n / eps)
// deterministically.
func CarveImprovedContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	return ImproveDiameterContext(ctx, g, nodes, eps, CarveRGContext, m)
}

// DecomposeImprovedContext is Theorem 3.4: a deterministic strong-diameter
// network decomposition with O(log n) colors and O(log² n) cluster diameter.
func DecomposeImprovedContext(ctx context.Context, g *graph.Graph, m *rounds.Meter) (*cluster.Decomposition, error) {
	return DecomposeContext(ctx, g, CarveImprovedContext, m)
}

// radiusReaching returns the smallest r with sizes[r] >= target (or the last
// layer if the target exceeds the reachable set).
func radiusReaching(sizes []int, target int) int {
	for r, sz := range sizes {
		if sz >= target {
			return r
		}
	}
	return len(sizes) - 1
}

// thinnestLayer returns the r in [lo, hi] minimizing sizes[r+1]/sizes[r],
// along with that ratio. Out-of-range radii clamp to the last layer (ratio
// 1, an empty shell).
func thinnestLayer(sizes []int, lo, hi int) (int, float64) {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	bestR, bestRatio := lo, math.Inf(1)
	for r := lo; r <= hi; r++ {
		cur := float64(sizeAt(sizes, r))
		next := float64(sizeAt(sizes, r+1))
		if cur == 0 {
			continue
		}
		ratio := next / cur
		if ratio < bestRatio {
			bestR, bestRatio = r, ratio
		}
	}
	return bestR, bestRatio
}

// subtract returns members minus the union of the given removal sets.
// n is the host graph's size.
func (sc *Scratch) subtract(n int, members []int, removals ...[]int) []int {
	sc.BeginSet(n)
	for _, rs := range removals {
		for _, v := range rs {
			sc.Add(v)
		}
	}
	var out []int
	for _, v := range members {
		if !sc.Has(v) {
			out = append(out, v)
		}
	}
	return out
}
