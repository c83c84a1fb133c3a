// Package apps implements the canonical applications of network
// decomposition described in the paper's introduction: deterministic
// distributed symmetry breaking by processing the decomposition's colors one
// by one. Clusters of the same color are non-adjacent, so they are processed
// simultaneously; within a cluster, coordination takes time proportional to
// the cluster's diameter — the *strong* diameter guarantee is what lets each
// cluster work entirely inside its own induced subgraph with no interference
// between same-color clusters.
//
// The simulated round cost of the template is the paper's C · D bound: the
// sum over colors of (2·max cluster diameter + O(1)).
package apps

import (
	"context"
	"fmt"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// MISContext computes a maximal independent set of g by the color-by-color
// template over the given decomposition. The result is deterministic given
// the decomposition. It returns the membership vector and charges the
// simulated schedule cost, from diam (ColorDiameters of g and d), to the
// meter. The main loop checks ctx between colors, so a served app run
// honors request timeouts and job cancellation; a canceled run fails with
// an error matching registry.ErrCanceled.
func MISContext(ctx context.Context, g *graph.Graph, d *cluster.Decomposition, diam []int, m *rounds.Meter) ([]bool, error) {
	if err := checkShape(g, d, diam); err != nil {
		return nil, err
	}
	inMIS := make([]bool, g.N())
	decided := make([]bool, g.N())
	members := d.Members()
	for color := 0; color < d.Colors; color++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		for cl := 0; cl < d.K; cl++ {
			if d.Color[cl] != color {
				continue
			}
			for _, v := range members[cl] {
				ok := true
				for _, w := range g.Neighbors(v) {
					if decided[w] && inMIS[w] {
						ok = false
						break
					}
				}
				if ok {
					inMIS[v] = true
				}
				decided[v] = true
			}
		}
		m.Charge("apps/mis", colorCost(diam, color))
	}
	return inMIS, nil
}

// VerifyMIS checks independence and maximality.
func VerifyMIS(g *graph.Graph, inMIS []bool) error {
	if len(inMIS) != g.N() {
		return fmt.Errorf("apps: MIS size %d vs graph %d", len(inMIS), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if inMIS[v] {
			for _, w := range g.Neighbors(v) {
				if inMIS[w] {
					return fmt.Errorf("apps: MIS not independent: %d-%d", v, w)
				}
			}
			continue
		}
		covered := false
		for _, w := range g.Neighbors(v) {
			if inMIS[w] {
				covered = true
				break
			}
		}
		if !covered && g.Degree(v) > 0 {
			return fmt.Errorf("apps: MIS not maximal at %d", v)
		}
		if !covered && g.Degree(v) == 0 {
			return fmt.Errorf("apps: isolated node %d must be in the MIS", v)
		}
	}
	return nil
}

// ColorGraphContext computes a (Δ+1) vertex coloring of g by the same
// template: per decomposition color, every cluster greedily colors its
// nodes with the smallest palette color not used by an already-colored
// neighbor. Since a node has at most Δ neighbors, Δ+1 colors always
// suffice. It charges the schedule cost from diam, as MISContext does.
// The main loop checks ctx between colors; a canceled run fails with an
// error matching registry.ErrCanceled.
func ColorGraphContext(ctx context.Context, g *graph.Graph, d *cluster.Decomposition, diam []int, m *rounds.Meter) ([]int, error) {
	if err := checkShape(g, d, diam); err != nil {
		return nil, err
	}
	colorOf := make([]int, g.N())
	for i := range colorOf {
		colorOf[i] = -1
	}
	members := d.Members()
	palette := make([]bool, g.MaxDegree()+2)
	for color := 0; color < d.Colors; color++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		for cl := 0; cl < d.K; cl++ {
			if d.Color[cl] != color {
				continue
			}
			for _, v := range members[cl] {
				for i := range palette {
					palette[i] = false
				}
				for _, w := range g.Neighbors(v) {
					if c := colorOf[w]; c >= 0 {
						palette[c] = true
					}
				}
				for c := range palette {
					if !palette[c] {
						colorOf[v] = c
						break
					}
				}
			}
		}
		m.Charge("apps/coloring", colorCost(diam, color))
	}
	return colorOf, nil
}

// VerifyColoring checks that the coloring is proper and uses at most
// maxColors colors (pass g.MaxDegree()+1 for the (Δ+1) guarantee).
func VerifyColoring(g *graph.Graph, colorOf []int, maxColors int) error {
	if len(colorOf) != g.N() {
		return fmt.Errorf("apps: coloring size %d vs graph %d", len(colorOf), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colorOf[v] < 0 || colorOf[v] >= maxColors {
			return fmt.Errorf("apps: node %d color %d outside [0,%d)", v, colorOf[v], maxColors)
		}
		for _, w := range g.Neighbors(v) {
			if colorOf[v] == colorOf[w] {
				return fmt.Errorf("apps: improper edge %d-%d with color %d", v, w, colorOf[v])
			}
		}
	}
	return nil
}

// ScheduleCost returns the C·D template cost of a decomposition on g: the
// sum over colors of twice the maximum cluster diameter plus constants —
// the quantity the paper's "time proportional to C · D" refers to. A
// decomposition that does not fit g costs 0.
func ScheduleCost(g *graph.Graph, d *cluster.Decomposition) int {
	diam, err := ColorDiameters(context.Background(), g, d)
	if err != nil {
		return 0
	}
	return ScheduleCostOf(diam)
}

// ScheduleCostOf is ScheduleCost from the per-color diameters
// ColorDiameters returns.
func ScheduleCostOf(diam []int) int {
	total := 0
	for c := range diam {
		total += int(colorCost(diam, c))
	}
	return total
}

// ColorDiameters returns, for each color of d, the largest strong
// diameter among that color's clusters (0 when the color has none; a
// disconnected cluster, of strong diameter -1, adds nothing): the
// coordination time the template charges for processing that color. This
// is the costly pass of every application, one BFS per cluster member, so
// a caller that runs an application and also reports its ScheduleCost
// computes it once and hands it to both. It checks ctx between clusters,
// so a canceled run stops within one cluster's work, with an error
// matching registry.ErrCanceled. A decomposition that does not fit g, or
// whose cluster colors lie outside [0, Colors), is an error.
func ColorDiameters(ctx context.Context, g *graph.Graph, d *cluster.Decomposition) ([]int, error) {
	if len(d.Assign) != g.N() {
		return nil, fmt.Errorf("apps: decomposition size %d vs graph %d", len(d.Assign), g.N())
	}
	if len(d.Color) < d.K {
		return nil, fmt.Errorf("apps: %d cluster colors for %d clusters", len(d.Color), d.K)
	}
	for cl, c := range d.Color[:d.K] {
		if c < 0 || c >= d.Colors {
			return nil, fmt.Errorf("apps: cluster %d color %d outside [0,%d)", cl, c, d.Colors)
		}
	}
	diam := make([]int, d.Colors)
	for cl, nodes := range d.Members() {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		c := d.Color[cl]
		diam[c] = max(diam[c], graph.StrongDiameter(g, nodes))
	}
	return diam, nil
}

// colorCost is the template's round charge for processing one color:
// twice its largest cluster diameter, plus 2.
func colorCost(diam []int, color int) int64 {
	return 2*int64(diam[color]) + 2
}

// checkShape rejects a decomposition that does not fit g, or per-color
// diameters that do not fit the decomposition.
func checkShape(g *graph.Graph, d *cluster.Decomposition, diam []int) error {
	if len(d.Assign) != g.N() {
		return fmt.Errorf("apps: decomposition size %d vs graph %d", len(d.Assign), g.N())
	}
	if len(diam) != d.Colors {
		return fmt.Errorf("apps: %d color diameters for %d colors", len(diam), d.Colors)
	}
	return nil
}
