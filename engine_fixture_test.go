package strongdecomp

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"strongdecomp/internal/graph"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/engine_fixtures.json from the current code")

// engineFixture pins the full output of one construction on the fixture
// graph: any representation change in the graph substrate must reproduce
// these assignments bit for bit.
type engineFixture struct {
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	Colors    int    `json:"colors"`
	Assign    []int  `json:"assign"`
	Color     []int  `json:"color"`
}

const fixturePath = "testdata/engine_fixtures.json"

// fixtureGraph is a fixed multi-component graph covering random, structured,
// tree, and expander-like components, so the Engine's per-component split,
// remap, and merge paths are all on the measured line.
func fixtureGraph() *graph.Graph {
	return graph.DisjointUnion(
		graph.ConnectedGnp(300, 0.02, 7),
		graph.Cycle(101),
		graph.Grid(12, 17),
		graph.RandomTree(97, 3),
		graph.SubdividedExpander(16, 4, 4, 5),
	)
}

func computeFixtures(t testing.TB) []engineFixture {
	g := fixtureGraph()
	var out []engineFixture
	for _, algo := range Algorithms() {
		e := NewEngine(WithEngineAlgorithm(algo), WithWorkers(4))
		d, err := engineDecompose(context.Background(), e, g, 42)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out = append(out, engineFixture{
			Algorithm: algo, K: d.K, Colors: d.Colors,
			Assign: d.Assign, Color: d.Color,
		})
	}
	return out
}

// TestEngineFixtures runs every registered construction through the Engine
// on the multi-component fixture graph and asserts the decompositions are
// bit-identical to the recorded pre-CSR-refactor results. Run with
// -update-fixtures to re-record (only legitimate when an algorithm itself
// changes, never for a representation refactor).
func TestEngineFixtures(t *testing.T) {
	got := computeFixtures(t)
	if *updateFixtures {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fixtures", fixturePath, len(got))
		return
	}
	want := loadFixtures(t)
	for _, g := range got {
		w, ok := want[g.Algorithm]
		if !ok {
			t.Errorf("%s: no recorded fixture", g.Algorithm)
			continue
		}
		checkFixture(t, g.Algorithm, &Decomposition{Assign: g.Assign, Color: g.Color, K: g.K, Colors: g.Colors}, w)
	}
}

// TestEntryPointsMatchEngineFixtures holds every entry point that runs a
// decomposition to the recorded Engine results on the multi-component
// fixture graph: Run, the Decompose option facade and the service each
// return the fixture bit for bit, and Run's metered round count equals
// Engine.Run's. All of them run through one Engine path, so the
// components of the fixture graph are decomposed separately (seed 42+i for
// component i) and merged, never handed to a construction as one graph.
func TestEntryPointsMatchEngineFixtures(t *testing.T) {
	want := loadFixtures(t)
	g := fixtureGraph()
	ctx := context.Background()
	svc, err := NewService()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, algo := range Algorithms() {
		w, ok := want[algo]
		if !ok {
			t.Errorf("%s: no recorded fixture", algo)
			continue
		}
		p := Params{Algorithm: algo, Seed: 42, Meter: true}
		viaRun, err := Run(ctx, g, p)
		if err != nil {
			t.Fatalf("%s: Run: %v", algo, err)
		}
		viaEngine, err := NewEngine().Run(ctx, g, p)
		if err != nil {
			t.Fatalf("%s: Engine.Run: %v", algo, err)
		}
		if viaRun.Rounds != viaEngine.Rounds {
			t.Errorf("%s: Run charged %d rounds, Engine.Run %d", algo, viaRun.Rounds, viaEngine.Rounds)
		}
		checkFixture(t, algo+" via Run", viaRun.Decomposition, w)

		viaOptions, err := Decompose(g, WithAlgorithmName(algo), WithSeed(42))
		if err != nil {
			t.Fatalf("%s: Decompose: %v", algo, err)
		}
		checkFixture(t, algo+" via Decompose", viaOptions, w)

		viaService, err := svc.Decompose(ctx, &ServiceRequest{Graph: g, Algo: algo, Seed: 42})
		if err != nil {
			t.Fatalf("%s: Service.Decompose: %v", algo, err)
		}
		checkFixture(t, algo+" via Service", viaService.Decomposition, w)
	}
}

// loadFixtures reads the recorded fixtures, keyed by algorithm.
func loadFixtures(t *testing.T) map[string]engineFixture {
	t.Helper()
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update-fixtures to create): %v", err)
	}
	var want []engineFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]engineFixture, len(want))
	for _, f := range want {
		byName[f.Algorithm] = f
	}
	return byName
}

// checkFixture reports every way d differs from the recorded fixture w.
func checkFixture(t *testing.T, label string, d *Decomposition, w engineFixture) {
	t.Helper()
	if d.K != w.K || d.Colors != w.Colors {
		t.Errorf("%s: got K=%d Colors=%d, fixture K=%d Colors=%d", label, d.K, d.Colors, w.K, w.Colors)
		return
	}
	if !equalInts(d.Assign, w.Assign) {
		t.Errorf("%s: assignment differs from fixture", label)
	}
	if !equalInts(d.Color, w.Color) {
		t.Errorf("%s: cluster colors differ from fixture", label)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
