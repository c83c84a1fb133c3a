package strongdecomp

import (
	"context"
	"errors"
	"testing"
)

func TestAlgorithmsListsAllConstructions(t *testing.T) {
	got := make(map[string]bool)
	for _, name := range Algorithms() {
		got[name] = true
	}
	for _, want := range []string{
		"linial-saks", "rozhon-ghaffari", "mpx", "sequential",
		"chang-ghaffari", "chang-ghaffari-improved",
	} {
		if !got[want] {
			t.Fatalf("registry missing %q: %v", want, Algorithms())
		}
	}
}

// TestLookupEveryRegisteredConstruction runs every registered
// decomposition through the registry, on a grid and on the disconnected
// fixture graph, and pins the centres, which the golden fixtures do not:
// one per cluster, and for strong-diameter constructions a member of its
// own cluster. A weak carving's centre may be a Steiner root outside its
// cluster, so weak entries are held only to the count.
func TestLookupEveryRegisteredConstruction(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		opts *RunOptions
	}{
		{"grid", GridGraph(8, 8), nil},
		{"fixture", fixtureGraph(), &RunOptions{Seed: 42}},
	} {
		for _, name := range Algorithms() {
			d, err := Lookup(name)
			if err != nil {
				t.Fatalf("Lookup(%q): %v", name, err)
			}
			if d.Info().Name != name {
				t.Fatalf("Lookup(%q) reports name %q", name, d.Info().Name)
			}
			dec, err := d.Decompose(context.Background(), tc.g, tc.opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tc.name, err)
			}
			if err := VerifyDecomposition(tc.g, dec, -1, false); err != nil {
				t.Fatalf("%s produced invalid decomposition on %s: %v", name, tc.name, err)
			}
			if len(dec.Centers) != dec.K {
				t.Fatalf("%s on %s: %d centres for %d clusters", name, tc.name, len(dec.Centers), dec.K)
			}
			if d.Info().Diameter != "strong" {
				continue
			}
			for i, c := range dec.Centers {
				if dec.Assign[c] != i {
					t.Fatalf("%s on %s: centre %d of cluster %d lies in cluster %d", name, tc.name, c, i, dec.Assign[c])
				}
			}
		}
	}
}

func TestLookupUnknownName(t *testing.T) {
	if _, err := Lookup("no-such-construction"); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
}

func TestRegisterDuplicateRejected(t *testing.T) {
	factory := func() Decomposer {
		return DecomposerFuncs{Meta: AlgorithmInfo{Name: "test-dup"}}
	}
	if err := Register("test-dup", factory); err != nil {
		t.Fatal(err)
	}
	defer Unregister("test-dup")
	if err := Register("test-dup", factory); !errors.Is(err, ErrDuplicateAlgorithm) {
		t.Fatalf("want ErrDuplicateAlgorithm, got %v", err)
	}
}

func TestRegisterInvalidRejected(t *testing.T) {
	if err := Register("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	err := Register("test-misnamed", func() Decomposer {
		return DecomposerFuncs{Meta: AlgorithmInfo{Name: "other"}}
	})
	if err == nil {
		Unregister("test-misnamed")
		t.Fatal("mismatched factory name accepted")
	}
}

// TestRegisteredConstructionReachableFromFacade registers a throwaway
// construction and drives it through the classic facade entry points — the
// drop-in extension path the registry exists for.
func TestRegisteredConstructionReachableFromFacade(t *testing.T) {
	err := Register("test-singleton", func() Decomposer {
		return DecomposerFuncs{
			Meta: AlgorithmInfo{Name: "test-singleton", Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(_ context.Context, g *Graph, _ RunOptions) (*Decomposition, error) {
				d := &Decomposition{Assign: make([]int, g.N()), Color: make([]int, g.N()), K: g.N(), Colors: 1}
				for v := range d.Assign {
					d.Assign[v] = v
				}
				return d, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer Unregister("test-singleton")

	g := PathGraph(5)
	d, err := Decompose(g, WithAlgorithmName("test-singleton"))
	if err != nil {
		t.Fatal(err)
	}
	if d.K != 5 {
		t.Fatalf("singleton decomposition has %d clusters, want 5", d.K)
	}
	// A construction without a Carve side reports a useful error.
	if _, err := BallCarve(g, 0.5, WithAlgorithmName("test-singleton")); err == nil {
		t.Fatal("Carve on decompose-only construction succeeded")
	}
}

func TestAlgorithmInfosOrdered(t *testing.T) {
	infos := AlgorithmInfos()
	if len(infos) < 6 {
		t.Fatalf("want >= 6 infos, got %d", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].Order < infos[i-1].Order {
			t.Fatalf("infos out of order at %d: %+v", i, infos)
		}
	}
}
