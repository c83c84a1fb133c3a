package rg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

var updateCarveFixtures = flag.Bool("update-carve-fixtures", false, "rewrite testdata/carve_fixtures.json from the current code")

const carveFixturePath = "testdata/carve_fixtures.json"

// carveFixture pins Carve's full output on one (input, eps) pair. The
// assignment, the centers and the Steiner trees are pinned by SHA-256
// digests of their JSON encodings, trees as per-cluster (node, parent)
// edge lists sorted by node, so the pin does not depend on how a Tree
// stores its nodes. The summary fields make a mismatch readable.
type carveFixture struct {
	Name       string           `json:"name"`
	Eps        float64          `json:"eps"`
	K          int              `json:"k"`
	Dead       int              `json:"dead"`
	TreeEdges  int              `json:"tree_edges"`
	Assign     string           `json:"assign_sha256"`
	Centers    string           `json:"centers_sha256"`
	Trees      string           `json:"trees_sha256"`
	Components map[string]int64 `json:"components"`
	Messages   int64            `json:"messages"`
}

type carveFixtureInput struct {
	name  string
	g     *graph.Graph
	nodes []int
}

func carveFixtureInputs() []carveFixtureInput {
	return []carveFixtureInput{
		{"connected-gnp-2000", graph.ConnectedGnp(2000, 6.0/2000, 5), nil},
		{"grid-40x25", graph.Grid(40, 25), nil},
		{"subset-1200-of-gnp-2000", graph.ConnectedGnp(2000, 8.0/2000, 7), allNodes(1200)},
		{"big-gnp-12000", graph.ConnectedGnp(12000, 6.0/12000, 11), nil},
	}
}

var carveFixtureEps = []float64{0.3, 0.05}

// treeEdges returns a tree's (node, parent) pairs sorted by node.
func treeEdges(t *cluster.Tree) [][2]int {
	var out [][2]int
	for i := 1; i < len(t.Nodes); i++ {
		out = append(out, [2]int{t.Nodes[i], t.Nodes[t.Parent[i]]})
	}
	slices.SortFunc(out, func(a, b [2]int) int { return a[0] - b[0] })
	return out
}

func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func fixtureOf(name string, eps float64, c *cluster.Carving, m *rounds.Meter) carveFixture {
	f := carveFixture{Name: name, Eps: eps, K: c.K, Components: m.Components(), Messages: m.Messages()}
	for _, a := range c.Assign {
		if a == cluster.Unclustered {
			f.Dead++
		}
	}
	trees := make([][][2]int, len(c.Trees))
	for i, t := range c.Trees {
		trees[i] = treeEdges(t)
		f.TreeEdges += len(trees[i])
	}
	f.Assign, f.Centers, f.Trees = digest(c.Assign), digest(c.Centers), digest(trees)
	return f
}

func diffFixture(got, want carveFixture) error {
	switch {
	case got.K != want.K || got.Dead != want.Dead || got.TreeEdges != want.TreeEdges:
		return fmt.Errorf("k/dead/tree edges %d/%d/%d, fixture %d/%d/%d",
			got.K, got.Dead, got.TreeEdges, want.K, want.Dead, want.TreeEdges)
	case got.Assign != want.Assign:
		return fmt.Errorf("assignment differs")
	case got.Centers != want.Centers:
		return fmt.Errorf("centers differ")
	case got.Trees != want.Trees:
		return fmt.Errorf("Steiner tree edge sets differ")
	case got.Messages != want.Messages:
		return fmt.Errorf("messages %d, fixture %d", got.Messages, want.Messages)
	case fmt.Sprint(got.Components) != fmt.Sprint(want.Components):
		return fmt.Errorf("components %v, fixture %v", got.Components, want.Components)
	}
	return nil
}

// TestCarveFixtures pins Carve's full output (assignment, centers, Steiner
// tree edge sets and meter charges) on four inputs at two boundary
// parameters. Run with -update-carve-fixtures to re-record; that is
// legitimate only when the algorithm itself changes, never for a
// representation or scheduling change.
func TestCarveFixtures(t *testing.T) {
	var got []carveFixture
	for _, in := range carveFixtureInputs() {
		for _, eps := range carveFixtureEps {
			m := rounds.NewMeter()
			c, err := Carve(in.g, in.nodes, eps, m)
			if err != nil {
				t.Fatalf("%s eps=%v: %v", in.name, eps, err)
			}
			got = append(got, fixtureOf(in.name, eps, c, m))
		}
	}
	if *updateCarveFixtures {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(carveFixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fixtures", carveFixturePath, len(got))
		return
	}
	data, err := os.ReadFile(carveFixturePath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update-carve-fixtures to create): %v", err)
	}
	var want []carveFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded fixtures, computed %d", len(want), len(got))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Eps != want[i].Eps {
			t.Fatalf("fixture %d is %s eps=%v, computed %s eps=%v", i, want[i].Name, want[i].Eps, got[i].Name, got[i].Eps)
		}
		if err := diffFixture(got[i], want[i]); err != nil {
			t.Errorf("%s eps=%v: %v", got[i].Name, got[i].Eps, err)
		}
	}
}
