package graphio

import (
	"bytes"
	"path/filepath"
	"testing"

	"strongdecomp/internal/graph"
)

// TestLoadCSRAllocsIndependentOfSize pins the snapshot load path's
// allocation count: LoadCSR maps the file and aliases the mapped pages as
// the CSR arrays, so it allocates a constant handful of objects at any n
// (9 at each n below; the edge-list parse of the 2^16-node graph makes
// 44, whose bytes grow with n + m).
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
// from the same page-cache state. The measured gap at n = 2^14 is about
// 2.5x.
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

// TestReadEdgeListAllocsIndependentOfSize pins ReadEdgeList's
// allocation-free line path: a line of two node ids allocates nothing, so
// ten times the edges costs only the few extra growth steps of the
// builder's edge buffer (the string path allocated about 2 objects per
// line, 180,000 more at the larger size).
func TestReadEdgeListAllocsIndependentOfSize(t *testing.T) {
	allocs := func(m int) float64 {
		g := graph.RandomRegularish(m/4, 8, 7)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(3, func() {
			if h, err := ReadEdgeList(bytes.NewReader(data)); err != nil || h.M() != g.M() {
				t.Fatalf("ReadEdgeList(m=%d): %v", g.M(), err)
			}
		})
	}
	small, large := allocs(1e4), allocs(1e5)
	t.Logf("ReadEdgeList allocates %v objects at 10^4 edges, %v at 10^5", small, large)
	const slack = 16
	if large > small+slack {
		t.Fatalf("ReadEdgeList allocates %v objects at 10^5 edges against %v at 10^4, want at most %d more",
			large, small, slack)
	}
}
