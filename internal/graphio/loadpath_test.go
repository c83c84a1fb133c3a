package graphio

import (
	"path/filepath"
	"testing"

	"strongdecomp/internal/graph"
)

// TestLoadCSRAllocsIndependentOfSize pins the snapshot load path's
// allocation count: LoadCSR maps the file and aliases the mapped pages as
// the CSR arrays, so it allocates a constant handful of objects at any n
// (9 at each n below, against 655,809 for the edge-list parse of a
// 2^16-node graph).
func TestLoadCSRAllocsIndependentOfSize(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		path := filepath.Join(dir, "g.csr")
		if err := SaveCSR(path, graph.RandomRegularish(n, 8, 7)); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if g, err := LoadCSR(path); err != nil || g.N() != n {
				t.Fatalf("LoadCSR(n=%d): %v", n, err)
			}
		})
		const ceiling = 16
		if allocs > ceiling {
			t.Fatalf("LoadCSR(n=%d) allocates %v per load, want <= %d", n, allocs, ceiling)
		}
	}
}

// TestLoadCSRBeatsTextParse is the reason the snapshot format exists: a
// graph is parsed once, spilled, and every later boot reopens it. Opening
// the snapshot must beat parsing the edge list, the fastest text format,
// from the same page-cache state. The measured gap at n = 2^14 is about 6x.
func TestLoadCSRBeatsTextParse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime slows the two loaders by different factors")
	}
	n := 1 << 14
	g := graph.ConnectedGnp(n, 8.0/float64(n), 7)
	dir := t.TempDir()
	elPath := filepath.Join(dir, "g.el")
	csrPath := filepath.Join(dir, "g.csr")
	for _, path := range []string{elPath, csrPath} {
		if err := Save(path, g); err != nil {
			t.Fatal(err)
		}
	}
	bench := func(load func(string) (*graph.Graph, error), path string) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := load(path)
				if err != nil {
					b.Fatal(err)
				}
				if h.N() != g.N() || h.M() != g.M() || h.Degree(0) != g.Degree(0) {
					b.Fatal("loaded graph differs from the saved one")
				}
			}
		})
	}
	parse := bench(Load, elPath)
	snap := bench(LoadCSR, csrPath)
	if parse.N == 0 || snap.N == 0 {
		t.Fatal("a loader failed inside testing.Benchmark")
	}
	t.Logf("edge-list parse %v/op, LoadCSR %v/op", parse.NsPerOp(), snap.NsPerOp())
	if snap.NsPerOp() >= parse.NsPerOp() {
		t.Fatalf("LoadCSR takes %d ns/op, not faster than the edge-list parse at %d ns/op",
			snap.NsPerOp(), parse.NsPerOp())
	}
}
