package rg

import (
	"testing"

	"strongdecomp/internal/graph"
)

// BenchmarkCarve carves the big-gnp-12000 fixture input at the weak ε that
// Theorem 2.1 derives from ε = 1/2 on the whole graph: ε/(2⌈log₂ n⌉), the
// value core.StrongCarve hands its first weak-carver call. Iterations after
// the first take the carver state from its pool, so over many iterations
// allocs/op approaches the output's 7.
func BenchmarkCarve(b *testing.B) {
	g := graph.ConnectedGnp(12000, 6.0/12000, 11)
	eps := 0.5 / (2 * float64(labelBits(g.N())))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Carve(g, nil, eps, nil); err != nil {
			b.Fatal(err)
		}
	}
}
