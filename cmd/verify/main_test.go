package main

import (
	"context"
	"strings"
	"testing"

	"strongdecomp"
)

// runDocument builds the document decompose emits for p on g.
func runDocument(t *testing.T, g *strongdecomp.Graph, p strongdecomp.Params) *document {
	t.Helper()
	out, err := strongdecomp.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	doc := &document{N: g.N(), Edges: g.Edges(), Algo: p.Algorithm, Seed: p.Seed}
	if out.Carving != nil {
		doc.Mode, doc.Eps = "carve", p.Eps
		doc.Assign, doc.K = out.Carving.Assign, out.Carving.K
		return doc
	}
	d := out.Decomposition
	doc.Mode = "decompose"
	doc.Assign, doc.Color, doc.K, doc.Colors = d.Assign, d.Color, d.K, d.Colors
	return doc
}

// TestRerunCheck: a document reproduces only if every field a run
// determines matches — a colour rotation keeps the decomposition valid
// but is not what the run produced, so it must fail like a changed
// assignment does.
func TestRerunCheck(t *testing.T) {
	twoComponents, err := strongdecomp.NewGraph(9, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	grid := strongdecomp.GridGraph(10, 10)
	for _, tc := range []struct {
		name string
		g    *strongdecomp.Graph
		p    strongdecomp.Params
	}{
		{"grid sequential", grid, strongdecomp.Params{Algorithm: "sequential", Kind: strongdecomp.KindDecompose, Seed: 3}},
		{"two components mpx", twoComponents, strongdecomp.Params{Algorithm: "mpx", Kind: strongdecomp.KindDecompose, Seed: 7}},
		{"grid carve", grid, strongdecomp.Params{Algorithm: "chang-ghaffari", Kind: strongdecomp.KindCarve, Eps: 0.5, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := runDocument(t, tc.g, tc.p)
			if err := rerunCheck(tc.g, doc); err != nil {
				t.Fatalf("unchanged document: %v", err)
			}

			moved := runDocument(t, tc.g, tc.p)
			moved.Assign[0], moved.Assign[len(moved.Assign)-1] = moved.Assign[len(moved.Assign)-1], moved.Assign[0]
			if moved.Assign[0] == doc.Assign[0] {
				moved.Assign[0]++
			}
			if err := rerunCheck(tc.g, moved); err == nil || !strings.Contains(err.Error(), "assign[") {
				t.Fatalf("changed assignment: err = %v, want an assign mismatch", err)
			}

			fewer := runDocument(t, tc.g, tc.p)
			fewer.K--
			if err := rerunCheck(tc.g, fewer); err == nil {
				t.Fatal("changed cluster count passed")
			}
		})
	}

	// The rotated-colour document: c -> (c+1) mod colors on every
	// cluster, with k, colors and assign untouched.
	doc := runDocument(t, grid, strongdecomp.Params{Algorithm: "sequential", Kind: strongdecomp.KindDecompose, Seed: 3})
	if doc.Colors < 2 {
		t.Fatalf("decomposition uses %d colors; a rotation needs two", doc.Colors)
	}
	for i, c := range doc.Color {
		doc.Color[i] = (c + 1) % doc.Colors
	}
	if err := rerunCheck(grid, doc); err == nil || !strings.Contains(err.Error(), "color[") {
		t.Fatalf("rotated colors: err = %v, want a color mismatch", err)
	}

	fewer := runDocument(t, grid, strongdecomp.Params{Algorithm: "sequential", Kind: strongdecomp.KindDecompose, Seed: 3})
	fewer.Colors++
	if err := rerunCheck(grid, fewer); err == nil {
		t.Fatal("changed color count passed")
	}
}
