package strongdecomp_test

import (
	"context"
	"testing"

	"strongdecomp"
)

// TestEngineStatsSnapshot pins the Stats() observability contract the
// serving layer's /metrics endpoint depends on: identity fields, run and
// batch counts, and the component-merge counter that distinguishes
// single-component runs from stitched multi-component ones.
func TestEngineStatsSnapshot(t *testing.T) {
	e := strongdecomp.NewEngine(
		strongdecomp.WithEngineAlgorithm("sequential"),
		strongdecomp.WithWorkers(3),
	)

	s := e.Stats()
	if s.Algorithm != "sequential" || s.Workers != 3 {
		t.Fatalf("identity fields = (%q, %d), want (sequential, 3)", s.Algorithm, s.Workers)
	}
	if s.Runs != 0 || s.Batches != 0 || s.ComponentMerges != 0 || s.InFlight != 0 {
		t.Fatalf("fresh engine has nonzero counters: %+v", s)
	}

	ctx := context.Background()
	connected := strongdecomp.PathGraph(16)
	if _, err := e.Run(ctx, connected, strongdecomp.Params{}); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.Runs != 1 || s.ComponentMerges != 0 {
		t.Fatalf("after connected run: Runs=%d Merges=%d, want 1, 0", s.Runs, s.ComponentMerges)
	}

	// Three components → three unit runs and one merge pass.
	split, err := strongdecomp.NewGraph(9, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx, split, strongdecomp.Params{}); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.Runs != 4 || s.ComponentMerges != 1 {
		t.Fatalf("after split run: Runs=%d Merges=%d, want 4, 1", s.Runs, s.ComponentMerges)
	}

	if _, err := e.DecomposeBatch(ctx, []*strongdecomp.Graph{connected, connected}, nil); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.Batches != 1 || s.Runs != 6 {
		t.Fatalf("after batch: Batches=%d Runs=%d, want 1, 6", s.Batches, s.Runs)
	}
	if s.InFlight != 0 {
		t.Fatalf("idle engine reports InFlight=%d", s.InFlight)
	}

	c := s.Counters()
	for _, key := range []string{"workers", "runs", "batches", "component_merges", "in_flight", "max_parallel"} {
		if _, ok := c[key]; !ok {
			t.Errorf("Counters() missing %q", key)
		}
	}
	if c["runs"] != s.Runs || c["workers"] != 3 {
		t.Fatalf("Counters() disagrees with snapshot: %v vs %+v", c, s)
	}
}

// TestEngineStatsCarveMerge covers the carving path's merge counter.
func TestEngineStatsCarveMerge(t *testing.T) {
	e := strongdecomp.NewEngine(strongdecomp.WithEngineAlgorithm("sequential"))
	split, err := strongdecomp.NewGraph(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), split, strongdecomp.Params{Kind: strongdecomp.KindCarve, Eps: 0.5}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.ComponentMerges != 1 || s.Runs != 2 {
		t.Fatalf("Runs=%d Merges=%d, want 2, 1", s.Runs, s.ComponentMerges)
	}
}
