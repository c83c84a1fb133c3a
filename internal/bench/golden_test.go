package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateTables = flag.Bool("update-tables", false, "rewrite testdata/tables_golden.json from the current code")

// goldenFamily is one workload family's share of the paper tables.
type goldenFamily struct {
	Family     string        `json:"family"`
	Table1     []Row         `json:"table1"`
	Table2     []Row         `json:"table2"`
	TableEdge  *EdgeRow      `json:"tableEdge"`
	Accounting *Accounting   `json:"accounting"`
	Ablation   []AblationRow `json:"ablation"`
}

// goldenTables holds every row cmd/tables prints by default. Barrier and
// MessageSizes build their own graphs, so they appear once.
type goldenTables struct {
	Families []goldenFamily     `json:"families"`
	Barrier  []BarrierResult    `json:"barrier"`
	Messages *MessageSizeResult `json:"messages"`
}

func computeGoldenTables(t *testing.T) goldenTables {
	const (
		n    = 1024
		eps  = 0.5
		seed = 1
	)
	var out goldenTables
	for _, family := range []string{"cycle", "path", "gnp", "grid", "subdivided"} {
		f := goldenFamily{Family: family}
		var err error
		if f.Table1, err = Table1(family, n, seed); err != nil {
			t.Fatalf("%s table 1: %v", family, err)
		}
		if f.Table2, err = Table2(family, n, eps, seed); err != nil {
			t.Fatalf("%s table 2: %v", family, err)
		}
		if f.TableEdge, err = TableEdge(family, n, eps, seed); err != nil {
			t.Fatalf("%s edge table: %v", family, err)
		}
		if f.Accounting, err = Thm21Accounting(family, n, eps, seed); err != nil {
			t.Fatalf("%s accounting: %v", family, err)
		}
		if f.Ablation, err = AblateWeakCarver(family, n, eps, seed); err != nil {
			t.Fatalf("%s ablation: %v", family, err)
		}
		out.Families = append(out.Families, f)
	}
	var err error
	if out.Barrier, err = Barrier(24, 4, 2*log2ceil(n), eps, seed); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if out.Messages, err = MessageSizes(256, seed); err != nil {
		t.Fatalf("message sizes: %v", err)
	}
	return out
}

// TestTablesGolden pins every paper-table row, on every workload family,
// to the recorded file: colours, diameters, metered rounds, dead
// fractions, the ablation's Steiner-tree-driven diameters and the ABCP96
// message statistics. Run with -update-tables to re-record; that is
// legitimate only when an algorithm's output is meant to change.
func TestTablesGolden(t *testing.T) {
	got, err := json.MarshalIndent(computeGoldenTables(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "tables_golden.json")
	if *updateTables {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden tables (run with -update-tables to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("tables differ from %s at line %d:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("tables differ from %s in length: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
