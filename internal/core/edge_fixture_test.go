package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

var updateEdgeFixtures = flag.Bool("update-edge-fixtures", false, "rewrite testdata/edge_fixtures.json from the current code")

const edgeFixturePath = "testdata/edge_fixtures.json"

// edgeFixture pins CarveEdgesRGContext's full output and meter charges on
// one (input, eps) pair.
type edgeFixture struct {
	Name       string           `json:"name"`
	Eps        float64          `json:"eps"`
	K          int              `json:"k"`
	Assign     []int            `json:"assign"`
	Centers    []int            `json:"centers"`
	Cut        [][2]int         `json:"cut"`
	Rounds     int64            `json:"rounds"`
	Messages   int64            `json:"messages"`
	Components map[string]int64 `json:"components"`
}

type edgeFixtureInput struct {
	name  string
	g     *graph.Graph
	nodes []int
}

// everyThird returns the ascending nodes of 0..n-1 not divisible by 3, a
// subset that splits paths and cycles into many components.
func everyThird(n int) []int {
	var out []int
	for v := range n {
		if v%3 != 0 {
			out = append(out, v)
		}
	}
	return out
}

func edgeFixtureInputs() []edgeFixtureInput {
	union := graph.DisjointUnion(graph.Cycle(5000), graph.Path(4000))
	return []edgeFixtureInput{
		{"cycle-300", graph.Cycle(300), nil},
		{"cycle-8000", graph.Cycle(8000), nil},
		{"first-5000-of-cycle-8000", graph.Cycle(8000), allNodes(5000)},
		{"path-8000", graph.Path(8000), nil},
		{"thirds-of-path-600", graph.Path(600), everyThird(600)},
		{"edgeless-subset-of-path-30", graph.Path(30), []int{0, 3, 6, 9, 12, 15, 18, 21, 24, 27}},
		{"grid-4000x2", graph.Grid(4000, 2), nil},
		{"first-900-of-grid-40x40", graph.Grid(40, 40), allNodes(900)},
		{"subdivided-8-3-400", graph.SubdividedExpander(8, 3, 400, 7), nil},
		{"regularish-800-6", graph.RandomRegularish(800, 6, 43), nil},
		{"thirds-of-regularish-3000-3", graph.RandomRegularish(3000, 3, 1), everyThird(3000)},
		{"union-cycle-5000-path-4000", union, nil},
		{"first-6000-of-union", union, allNodes(6000)},
	}
}

var edgeFixtureEps = []float64{0.1, 0.5}

func computeEdgeFixtures(t *testing.T) []edgeFixture {
	var got []edgeFixture
	for _, in := range edgeFixtureInputs() {
		for _, eps := range edgeFixtureEps {
			m := rounds.NewMeter()
			ec, err := CarveEdgesRGContext(context.Background(), in.g, in.nodes, eps, m)
			if err != nil {
				t.Fatalf("%s eps=%v: %v", in.name, eps, err)
			}
			got = append(got, edgeFixture{
				Name: in.name, Eps: eps, K: ec.K,
				Assign: ec.Assign, Centers: ec.Centers, Cut: ec.Cut,
				Rounds: m.Rounds(), Messages: m.Messages(), Components: m.Components(),
			})
		}
	}
	return got
}

// TestEdgeFixtures pins the edge version's full output (assignment,
// centers, cut edges and meter charges) on full graphs and sorted subsets
// of six families at two values of eps. The comparison is reflect.DeepEqual
// on the decoded file, so a nil Cut and an empty one differ. Run with
// -update-edge-fixtures to re-record; that is legitimate only when the
// algorithm itself changes, never for a representation change.
func TestEdgeFixtures(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded code whose 8000-node inputs take seconds under -race; the plain run pins them")
	}
	got := computeEdgeFixtures(t)
	if *updateEdgeFixtures {
		// One fixture per line keeps the file diffable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, f := range got {
			data, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(data)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(edgeFixturePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fixtures", edgeFixturePath, len(got))
		return
	}
	data, err := os.ReadFile(edgeFixturePath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update-edge-fixtures to create): %v", err)
	}
	var want []edgeFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded fixtures, computed %d", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s eps=%v: output differs from the fixture (k %d/%d, cut %d/%d, rounds %d/%d)",
				got[i].Name, got[i].Eps, got[i].K, want[i].K, len(got[i].Cut), len(want[i].Cut), got[i].Rounds, want[i].Rounds)
		}
	}
}
