package bench

import (
	"context"
	"fmt"
	"math/rand"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/ls"
	"strongdecomp/internal/rounds"
)

// AblationRow measures the Theorem 2.1 transformation instantiated with a
// particular black-box weak carver. The transformation is carver-agnostic
// ("If the former algorithm is deterministic, so is the latter"), so its
// output diameter tracks the *carver's* Steiner depth R: plugging in the
// randomized Linial–Saks carver (R = O(log n/ε)) yields a randomized strong
// carving with O(log n/ε) diameter, while the deterministic RG20 carver
// (R = O(log³ n/ε)) yields the paper's deterministic Theorem 2.2 bound.
type AblationRow struct {
	Carver     string  `json:"carver"`
	N          int     `json:"n"`
	Eps        float64 `json:"eps"`
	StrongDiam int     `json:"strongDiam"`
	Rounds     int64   `json:"rounds"`
	DeadFrac   float64 `json:"deadFrac"`
	Clusters   int     `json:"clusters"`
}

// AblateWeakCarver runs the Theorem 2.1 transformation with each available weak carver on the
// same workload, demonstrating the black-box property of Theorem 2.1.
func AblateWeakCarver(family string, n int, eps float64, seed int64) ([]AblationRow, error) {
	g, err := Workload(family, n, seed)
	if err != nil {
		return nil, err
	}
	carvers := []struct {
		name string
		weak core.WeakCarver
	}{
		{name: "rg20-deterministic", weak: rgCarve},
		{name: "linial-saks-randomized", weak: func(gg *graph.Graph, nodes []int, e float64, m *rounds.Meter) (*cluster.Carving, error) {
			return ls.CarveContext(context.Background(), gg, nodes, e, rand.New(rand.NewSource(seed)), m)
		}},
	}
	var out []AblationRow
	for _, c := range carvers {
		m := rounds.NewMeter()
		carving, err := core.StrongCarveContext(context.Background(), g, nil, eps, c.weak, m)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", c.name, err)
		}
		if err := cluster.CheckCarving(g, nil, carving, eps, -1); err != nil {
			return nil, fmt.Errorf("bench: ablation %s invalid: %w", c.name, err)
		}
		out = append(out, AblationRow{
			Carver: c.name, N: n, Eps: eps,
			StrongDiam: cluster.MaxStrongDiameter(g, carving.Members()),
			Rounds:     m.Rounds(),
			DeadFrac:   carving.DeadFraction(nil),
			Clusters:   carving.K,
		})
	}
	return out, nil
}
