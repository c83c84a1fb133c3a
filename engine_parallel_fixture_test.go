package strongdecomp

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"strongdecomp/internal/graph"
)

// TestEngineFixturesParallelBFS re-runs every registered construction on
// the fixture graph with the frontier-parallel traversal path forced on
// (threshold 0, so even the small fixture components take it) and asserts
// the decompositions reproduce testdata/engine_fixtures.json bit for bit.
// This is the engine-level determinism pin for -par-bfs: parallelism is a
// wall-clock optimization, never an output change.
func TestEngineFixturesParallelBFS(t *testing.T) {
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixtures: %v", err)
	}
	var want []engineFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]engineFixture, len(want))
	for _, f := range want {
		byName[f.Algorithm] = f
	}
	g := fixtureGraph()
	for _, algo := range Algorithms() {
		e := NewEngine(WithEngineAlgorithm(algo), WithWorkers(4),
			WithParallelBFS(true), WithParallelBFSThreshold(0))
		d, err := engineDecompose(context.Background(), e, g, 42)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		w, ok := byName[algo]
		if !ok {
			t.Errorf("%s: no recorded fixture", algo)
			continue
		}
		if d.K != w.K || d.Colors != w.Colors {
			t.Errorf("%s: parallel run got K=%d Colors=%d, fixture K=%d Colors=%d", algo, d.K, d.Colors, w.K, w.Colors)
			continue
		}
		if !equalInts(d.Assign, w.Assign) {
			t.Errorf("%s: parallel assignment differs from fixture", algo)
		}
		if !equalInts(d.Color, w.Color) {
			t.Errorf("%s: parallel cluster colors differ from fixture", algo)
		}
	}
}

// TestEngineParallelBFSSingleComponent pins the single-giant-component
// path — the one the multi-component fixture graph never takes, where the
// engine hands the construction the intra-component parallel config — by
// decomposing and carving one connected graph with parallelism forced on
// and asserting bit-identity with the sequential engine.
func TestEngineParallelBFSSingleComponent(t *testing.T) {
	g := graph.ConnectedGnp(2000, 0.004, 17)
	for _, algo := range Algorithms() {
		seqE := NewEngine(WithEngineAlgorithm(algo), WithWorkers(1))
		parE := NewEngine(WithEngineAlgorithm(algo), WithWorkers(4),
			WithParallelBFS(true), WithParallelBFSThreshold(0))

		want, err := engineDecompose(context.Background(), seqE, g, 7)
		if err != nil {
			t.Fatalf("%s: sequential decompose: %v", algo, err)
		}
		got, err := engineDecompose(context.Background(), parE, g, 7)
		if err != nil {
			t.Fatalf("%s: parallel decompose: %v", algo, err)
		}
		if got.K != want.K || got.Colors != want.Colors ||
			!equalInts(got.Assign, want.Assign) || !equalInts(got.Color, want.Color) {
			t.Errorf("%s: parallel single-component decompose diverges from sequential", algo)
		}

		wantC, err := engineCarve(context.Background(), seqE, g, 0.5, 7)
		if err != nil {
			t.Fatalf("%s: sequential carve: %v", algo, err)
		}
		gotC, err := engineCarve(context.Background(), parE, g, 0.5, 7)
		if err != nil {
			t.Fatalf("%s: parallel carve: %v", algo, err)
		}
		if gotC.K != wantC.K || !equalInts(gotC.Assign, wantC.Assign) {
			t.Errorf("%s: parallel single-component carve diverges from sequential", algo)
		}
	}
}
