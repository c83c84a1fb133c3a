package graph

import (
	"testing"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse order
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3 (duplicate must be removed)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("edge 0-1 missing")
	}
	if g.HasEdge(0, 3) {
		t.Fatalf("phantom edge 0-3")
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("Degree(1) = %d, want 2", d)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	b = NewBuilder(3)
	b.AddEdge(-1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

func TestBuilderRejectsNegativeN(t *testing.T) {
	if _, err := NewBuilder(-1).Build(); err == nil {
		t.Fatal("negative node count accepted")
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("empty graph has non-zero stats")
	}
	if len(g.Edges()) != 0 {
		t.Fatalf("empty graph has edges")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 4)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(2, 1)
	g := b.MustBuild()
	nbrs := g.Neighbors(2)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbors unsorted: %v", nbrs)
		}
	}
}

func TestEdgesOrderedAndComplete(t *testing.T) {
	g := Cycle(5)
	edges := g.Edges()
	if len(edges) != 5 {
		t.Fatalf("cycle 5 has %d edges", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not in canonical order", e)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on invalid input")
		}
	}()
	b := NewBuilder(1)
	b.AddEdge(0, 0)
	b.MustBuild()
}
