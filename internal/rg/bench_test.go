package rg

import (
	"testing"

	"strongdecomp/internal/graph"
)

// BenchmarkCarve carves two inputs at the weak ε that Theorem 2.1 derives
// from ε = 1/2 on the whole graph: ε/(2⌈log₂ n⌉), the value
// core.StrongCarveContext hands its first weak-carver call. gnp is the
// big-gnp-12000 fixture input, where most phases seed by push; strip is
// one 1000×10 grid of decompose-strips, where most seed by pull.
// Iterations after the first take the carver state from its pool, so over
// many iterations allocs/op approaches the output's 7.
func BenchmarkCarve(b *testing.B) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.ConnectedGnp(12000, 6.0/12000, 11)},
		{"strip", graph.Grid(1000, 10)},
	} {
		eps := 0.5 / (2 * float64(labelBits(in.g.N())))
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Carve(in.g, nil, eps, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
