// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts — Table 1 (network decomposition), Table 2 (ball
// carving) — and the scaling "figures" implied by the asymptotic claims
// (experiments E1–E7 in DESIGN.md). It is shared by cmd/tables and the
// root-level testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/congest"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
	"strongdecomp/internal/seqcarve"

	// Registered constructions the harness reaches only through the
	// registry; the blank imports trigger their self-registration.
	_ "strongdecomp/internal/ls"
	_ "strongdecomp/internal/mpx"
)

// Row is one measured line of a reproduced table.
type Row struct {
	Table     string  `json:"table"`     // "table1" or "table2"
	Type      string  `json:"type"`      // "weak" or "strong"
	Model     string  `json:"model"`     // "randomized" or "deterministic"
	Algorithm string  `json:"algorithm"` // implementation name
	Reference string  `json:"reference"` // paper citation for the row
	N         int     `json:"n"`
	Eps       float64 `json:"eps,omitempty"`

	Colors     int     `json:"colors,omitempty"`
	StrongDiam int     `json:"strongDiam"` // -1 when a cluster is disconnected
	WeakDiam   int     `json:"weakDiam"`
	Rounds     int64   `json:"rounds"`
	DeadFrac   float64 `json:"deadFrac,omitempty"`
	Clusters   int     `json:"clusters"`

	PaperColors string `json:"paperColors,omitempty"`
	PaperDiam   string `json:"paperDiam"`
	PaperRounds string `json:"paperRounds"`
}

// Workload builds the experiment graph for a family name. The default
// family is "cycle": its Θ(n) diameter keeps the polylogarithmic diameter
// bounds of the algorithms *binding* at laptop-scale n, which is what makes
// the log / log² / log³ hierarchy of the paper's tables visible in the
// measurements. Low-diameter families ("gnp", "grid") are also available;
// on those every polylog algorithm legitimately returns near-whole-graph
// clusters.
//
// A family of the form "file:<path>" — or a bare path with a recognized
// graphio extension — loads a real graph file instead, so the whole table
// harness runs unchanged against external workloads (n and seed are
// ignored for files).
func Workload(family string, n int, seed int64) (*graph.Graph, error) {
	if path, ok := fileFamily(family); ok {
		return graphio.Load(path)
	}
	switch family {
	case "", "cycle":
		return graph.Cycle(n), nil
	case "path":
		return graph.Path(n), nil
	case "gnp":
		return graph.ConnectedGnp(n, 4.0/float64(n), seed), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "subdivided":
		return graph.SubdividedExpander(n/32+4, 4, 16, seed), nil
	default:
		return nil, fmt.Errorf("bench: unknown workload family %q", family)
	}
}

// fileFamily reports whether a workload family names a graph file: either
// the explicit "file:<path>" form or a bare path with a recognized graphio
// extension.
func fileFamily(family string) (string, bool) {
	if path, ok := strings.CutPrefix(family, "file:"); ok {
		return path, true
	}
	if _, err := graphio.DetectFormat(family); err == nil {
		return family, true
	}
	return "", false
}

// selected builds the per-name filter for an optional `only` list; nil or
// empty means every registered construction. Unknown names are an error, so
// a typo'd filter cannot silently produce empty tables.
func selected(only []string) (func(string) bool, error) {
	if len(only) == 0 {
		return func(string) bool { return true }, nil
	}
	set := make(map[string]bool, len(only))
	for _, name := range only {
		if _, err := registry.Lookup(name); err != nil {
			return nil, err
		}
		set[name] = true
	}
	return func(name string) bool { return set[name] }, nil
}

// Table1 reproduces every row of the paper's Table 1 (network decomposition
// in the CONGEST model) as a measured experiment on an n-node workload. It
// iterates the algorithm registry, so a newly registered construction gets
// a measured row with no harness edit; the optional `only` list restricts
// the run to the named constructions.
func Table1(family string, n int, seed int64, only ...string) ([]Row, error) {
	g, err := Workload(family, n, seed)
	if err != nil {
		return nil, err
	}
	keep, err := selected(only)
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, info := range registry.Infos() {
		if !keep(info.Name) {
			continue
		}
		dec, err := registry.Lookup(info.Name)
		if err != nil {
			return nil, err
		}
		m := rounds.NewMeter()
		d, err := dec.Decompose(context.Background(), g, &registry.RunOptions{Seed: seed, Meter: m})
		if err != nil {
			return nil, fmt.Errorf("bench: table1 %s: %w", info.Name, err)
		}
		if err := cluster.CheckDecomposition(g, d, -1, false); err != nil {
			return nil, fmt.Errorf("bench: table1 %s invalid: %w", info.Name, err)
		}
		members := d.Members()
		out = append(out, Row{
			Table: "table1", Type: info.Diameter, Model: info.Model,
			Algorithm: info.DisplayName(), Reference: info.DecompRef(),
			N: g.N(), Colors: d.Colors,
			StrongDiam: cluster.MaxStrongDiameter(g, members),
			WeakDiam:   cluster.MaxWeakDiameter(g, members),
			Rounds:     m.Rounds(), Clusters: d.K,
			PaperColors: info.PaperColors, PaperDiam: info.PaperDecompDiam,
			PaperRounds: info.PaperDecompRounds,
		})
	}
	return out, nil
}

// Table2 reproduces the rows of the paper's Table 2 (ball carving) at a
// given boundary parameter eps. Like Table1 it iterates the registry;
// constructions without a calibrated eps-carving bound (empty
// PaperCarveDiam, e.g. the sequential baseline) are skipped.
func Table2(family string, n int, eps float64, seed int64, only ...string) ([]Row, error) {
	g, err := Workload(family, n, seed)
	if err != nil {
		return nil, err
	}
	keep, err := selected(only)
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, info := range registry.Infos() {
		if !keep(info.Name) || info.PaperCarveDiam == "" {
			continue
		}
		dec, err := registry.Lookup(info.Name)
		if err != nil {
			return nil, err
		}
		m := rounds.NewMeter()
		c, err := dec.Carve(context.Background(), g, eps, &registry.RunOptions{Seed: seed, Meter: m})
		if err != nil {
			return nil, fmt.Errorf("bench: table2 %s: %w", info.Name, err)
		}
		if err := cluster.CheckCarving(g, nil, c, eps, -1); err != nil {
			return nil, fmt.Errorf("bench: table2 %s invalid: %w", info.Name, err)
		}
		members := c.Members()
		out = append(out, Row{
			Table: "table2", Type: info.Diameter, Model: info.Model,
			Algorithm: info.DisplayName(), Reference: info.CarveRef(),
			N: g.N(), Eps: eps,
			StrongDiam: cluster.MaxStrongDiameter(g, members),
			WeakDiam:   cluster.MaxWeakDiameter(g, members),
			Rounds:     m.Rounds(), DeadFrac: c.DeadFraction(nil), Clusters: c.K,
			PaperDiam: info.PaperCarveDiam, PaperRounds: info.PaperCarveRounds,
		})
	}
	return out, nil
}

// rgCarve names the deterministic weak carver used across the harness.
func rgCarve(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	return rg.Carve(g, nodes, eps, m)
}

// EdgeRow is one measured line of the edge-version carving experiment (the
// paper's remark after Table 2).
type EdgeRow struct {
	N           int     `json:"n"`
	Eps         float64 `json:"eps"`
	Clusters    int     `json:"clusters"`
	CutEdges    int     `json:"cutEdges"`
	CutFraction float64 `json:"cutFraction"`
	MaxDiam     int     `json:"maxDiam"` // diameter within the remaining graph
	Rounds      int64   `json:"rounds"`
}

// TableEdge measures the deterministic edge-version strong carving
// (core.CarveEdgesRGContext) on the workload: cut fraction <= eps with every node
// clustered, reproducing the paper's edge-version remark.
func TableEdge(family string, n int, eps float64, seed int64) (*EdgeRow, error) {
	g, err := Workload(family, n, seed)
	if err != nil {
		return nil, err
	}
	m := rounds.NewMeter()
	ec, err := core.CarveEdgesRGContext(context.Background(), g, nil, eps, m)
	if err != nil {
		return nil, err
	}
	if err := cluster.CheckEdgeCarving(g, nil, ec.Assign, ec.K, ec.Cut, eps, -1); err != nil {
		return nil, fmt.Errorf("bench: edge carving invalid: %w", err)
	}
	// Diameter within the remaining graph: measure per cluster using the
	// cut-aware oracle by rebuilding the remaining subgraph.
	b := graph.NewBuilder(g.N())
	isCut := make(map[[2]int]bool, len(ec.Cut))
	for _, e := range ec.Cut {
		isCut[e] = true
	}
	for _, e := range g.Edges() {
		if !isCut[e] {
			b.AddEdge(e[0], e[1])
		}
	}
	remaining := b.MustBuild()
	members := make([][]int, ec.K)
	for v, cl := range ec.Assign {
		if cl != cluster.Unclustered {
			members[cl] = append(members[cl], v)
		}
	}
	maxDiam := cluster.MaxStrongDiameter(remaining, members)
	return &EdgeRow{
		N: n, Eps: eps,
		Clusters: ec.K, CutEdges: len(ec.Cut),
		CutFraction: float64(len(ec.Cut)) / float64(g.M()),
		MaxDiam:     maxDiam,
		Rounds:      m.Rounds(),
	}, nil
}

// Accounting is the Theorem 2.1 round breakdown of experiment E3.
type Accounting struct {
	N          int              `json:"n"`
	Eps        float64          `json:"eps"`
	Rounds     int64            `json:"rounds"`
	Components map[string]int64 `json:"components"`
	StrongDiam int              `json:"strongDiam"`
	DiamBound  int              `json:"diamBound"` // 2R + O(log n/eps) with realized R
	DeadFrac   float64          `json:"deadFrac"`
	Clusters   int              `json:"clusters"`
}

// Thm21Accounting runs the Theorem 2.2 carver and reports the measured
// round split across the transformation's three terms together with the
// realized diameter against the 2R + O(log n / eps) guarantee.
func Thm21Accounting(family string, n int, eps float64, seed int64) (*Accounting, error) {
	g, err := Workload(family, n, seed)
	if err != nil {
		return nil, err
	}
	m := rounds.NewMeter()
	c, err := core.CarveRGContext(context.Background(), g, nil, eps, m)
	if err != nil {
		return nil, err
	}
	if err := cluster.CheckCarving(g, nil, c, eps, -1); err != nil {
		return nil, err
	}
	// Realized weak-carver depth bound: recover from a fresh weak run at
	// the transformed boundary parameter.
	epsWeak := eps / (2 * float64(log2ceil(n)))
	wc, err := rgCarve(g, nil, epsWeak, nil)
	if err != nil {
		return nil, err
	}
	depth := 0
	for _, t := range wc.Trees {
		if t != nil {
			if d := t.Depth(); d > depth {
				depth = d
			}
		}
	}
	window := int(math.Ceil(math.Log(float64(n))/-math.Log(1-eps/2))) + 1
	return &Accounting{
		N: n, Eps: eps,
		Rounds: m.Rounds(), Components: m.Components(),
		StrongDiam: cluster.MaxStrongDiameter(g, c.Members()),
		DiamBound:  2*depth + 2*window + 2,
		DeadFrac:   c.DeadFraction(nil),
		Clusters:   c.K,
	}, nil
}

// BarrierResult compares the Section 3 barrier graph against a benign graph
// of similar size (experiment E4).
type BarrierResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Eps         float64 `json:"eps"`
	CutOutcomes int     `json:"cutOutcomes"`
	CompOutcome int     `json:"componentOutcomes"`
	MaxDiam     int     `json:"maxDiam"` // improved-carving cluster diameter
	Log2N       int     `json:"log2n"`
}

// Barrier runs the improved carving on the subdivided expander and on a
// torus of comparable size, reporting Lemma 3.1 outcome counts and realized
// diameters. On the barrier graph diameters are forced to the log²(n)/eps
// scale; on the torus they are much smaller.
func Barrier(nExp, deg, pathLen int, eps float64, seed int64) ([]BarrierResult, error) {
	barrier := graph.SubdividedExpander(nExp, deg, pathLen, seed)
	side := int(math.Sqrt(float64(barrier.N())))
	benign := graph.Torus(side, side)
	var out []BarrierResult
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"subdivided-expander", barrier}, {"torus", benign}} {
		cuts, comps := 0, 0
		c, err := core.CarveImprovedContext(context.Background(), tc.g, nil, eps, nil)
		if err != nil {
			return nil, err
		}
		if err := cluster.CheckCarving(tc.g, nil, c, eps, -1); err != nil {
			return nil, err
		}
		// Outcome census: run the lemma once per final cluster.
		for _, members := range c.Members() {
			if len(members) < 4 {
				continue
			}
			res, err := core.CutOrComponent(tc.g, members, eps, nil)
			if err != nil {
				return nil, err
			}
			if res.IsCut {
				cuts++
			} else {
				comps++
			}
		}
		out = append(out, BarrierResult{
			Name: tc.name, N: tc.g.N(), Eps: eps,
			CutOutcomes: cuts, CompOutcome: comps,
			MaxDiam: cluster.MaxStrongDiameter(tc.g, c.Members()),
			Log2N:   log2ceil(tc.g.N()),
		})
	}
	return out, nil
}

// MessageSizeResult contrasts CONGEST-compliant message sizes with the
// ABCP96 transformation's gathered topologies (experiment E5).
type MessageSizeResult struct {
	N               int   `json:"n"`
	CongestBudget   int   `json:"congestBudgetBits"`
	EngineMaxBits   int   `json:"engineMaxBits"`
	ABCPMaxBits     int64 `json:"abcpMaxBits"`
	ABCPGatherEdges int64 `json:"abcpGatherEdges"`
	ABCPPowerRounds int64 `json:"abcpPowerRounds"`
}

// MessageSizes measures the maximum message size of a real protocol run on
// the engine versus the ABCP96 transformation's topology gathering.
func MessageSizes(n int, seed int64) (*MessageSizeResult, error) {
	g, err := Workload("gnp", n, seed)
	if err != nil {
		return nil, err
	}
	_, _, met, err := congest.RunBFS(g, 0, congest.Config{})
	if err != nil {
		return nil, err
	}
	m := rounds.NewMeter()
	_, stats, err := seqcarve.ABCPTransform(g, func(p *graph.Graph, pm *rounds.Meter) (*cluster.Decomposition, error) {
		return core.DecomposeRGContext(context.Background(), p, pm)
	}, m)
	if err != nil {
		return nil, err
	}
	return &MessageSizeResult{
		N:               n,
		CongestBudget:   congest.DefaultBandwidth(n),
		EngineMaxBits:   met.MaxMessageBits,
		ABCPMaxBits:     stats.MaxMessageBits,
		ABCPGatherEdges: stats.GatherEdges,
		ABCPPowerRounds: stats.PowerGraphRounds,
	}, nil
}

// ScalingPoint is one measurement of a scaling series (experiments E6/E7).
type ScalingPoint struct {
	Algorithm  string `json:"algorithm"`
	N          int    `json:"n"`
	Rounds     int64  `json:"rounds"`
	StrongDiam int    `json:"strongDiam"`
	WeakDiam   int    `json:"weakDiam"`
	Colors     int    `json:"colors"`
}

// Scaling sweeps n over the given sizes for every decomposition algorithm
// (or the optional `only` subset) and returns the series of (rounds,
// diameter, colors) measurements. File-backed workloads are rejected: a
// file pins the graph, so a size sweep would measure the same point
// repeatedly and the fitted log-exponent would be undefined.
func Scaling(family string, ns []int, seed int64, only ...string) ([]ScalingPoint, error) {
	if _, ok := fileFamily(family); ok {
		return nil, fmt.Errorf("bench: scaling needs a generated family that varies with n; %q is a fixed graph file", family)
	}
	var out []ScalingPoint
	for _, n := range ns {
		rows, err := Table1(family, n, seed, only...)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			out = append(out, ScalingPoint{
				Algorithm:  r.Algorithm,
				N:          r.N,
				Rounds:     r.Rounds,
				StrongDiam: r.StrongDiam,
				WeakDiam:   r.WeakDiam,
				Colors:     r.Colors,
			})
		}
	}
	return out, nil
}

// FitLogExponent fits rounds ≈ c·(log₂ n)^k over a series of (n, value)
// points by least squares in log-log-log space and returns k. It quantifies
// the "polylogarithmic" claims: the fitted exponent of each algorithm's
// round growth should be a small constant.
func FitLogExponent(ns []int, values []int64) float64 {
	if len(ns) != len(values) || len(ns) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	k := 0
	for i := range ns {
		if values[i] <= 0 || ns[i] < 2 {
			continue
		}
		x := math.Log(math.Log2(float64(ns[i])))
		y := math.Log(float64(values[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		k++
	}
	if k < 2 {
		return math.NaN()
	}
	fk := float64(k)
	den := fk*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (fk*sxy - sx*sy) / den
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}
