// Command verify validates a decomposition or carving produced by
// cmd/decompose: it re-derives every defining property (partition shape,
// non-adjacency, diameter bounds, dead fraction) from the JSON document on
// stdin and exits non-zero on any violation.
//
// With -rerun it additionally re-executes the document's Params (algorithm,
// mode, eps, seed) through strongdecomp.Run, the path decompose itself
// takes: every registered construction is deterministic given its seed, so
// the reproduced assignment, cluster count, colors and color count must
// match the document exactly.
//
// With -input the host graph is loaded from a file (edge list, METIS,
// JSON, or a binary .csr snapshot, detected by extension — snapshots open
// via mmap with no parse) instead of the document's embedded edge list —
// the file-based twin of decompose -input, and the only way to verify
// documents produced with -omit-edges. When the document does embed a
// graph, the file must match it (same node count and content hash).
//
// Usage:
//
//	decompose -gen grid -n 400 | verify [-eps 0.5] [-max-diam -1] [-rerun]
//	decompose -input web.metis -omit-edges | verify -input web.metis
//	decompose -input web.csr -omit-edges | verify -input web.csr
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"strongdecomp"
	"strongdecomp/internal/cluster"
)

type document struct {
	N            int      `json:"n"`
	Edges        [][2]int `json:"edges"`
	EdgesOmitted bool     `json:"edgesOmitted"`
	Hash         string   `json:"hash"`
	Mode         string   `json:"mode"`
	Eps          float64  `json:"eps"`
	Algo         string   `json:"algo"`
	Seed         int64    `json:"seed"`
	Assign       []int    `json:"assign"`
	Color        []int    `json:"color"`
	K            int      `json:"k"`
	Colors       int      `json:"colors"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "verify: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("verify: OK")
}

func run() error {
	var (
		maxDiam   = flag.Int("max-diam", -1, "optional strong-diameter bound to enforce (-1: skip)")
		strong    = flag.Bool("strong", true, "measure diameters in the induced subgraph")
		rerun     = flag.Bool("rerun", false, "re-execute the document's registered algorithm with its seed and demand an identical result")
		input     = flag.String("input", "", "load the host graph from this file (.el/.metis/.json/.csr) instead of the document's edge list")
		listAlgos = flag.Bool("list-algos", false, "list the registered algorithms and exit")
	)
	flag.Parse()

	if *listAlgos {
		fmt.Println(strings.Join(strongdecomp.Algorithms(), "\n"))
		return nil
	}

	var doc document
	if err := json.NewDecoder(os.Stdin).Decode(&doc); err != nil {
		return fmt.Errorf("decode input: %w", err)
	}
	g, err := hostGraph(&doc, *input)
	if err != nil {
		return err
	}
	switch doc.Mode {
	case "carve":
		c := &cluster.Carving{Assign: doc.Assign, K: doc.K}
		eps := doc.Eps
		if eps == 0 {
			eps = 1
		}
		if err := strongdecomp.VerifyCarving(g, c, eps, *maxDiam); err != nil {
			return err
		}
	case "decompose":
		d := &cluster.Decomposition{Assign: doc.Assign, Color: doc.Color, K: doc.K, Colors: doc.Colors}
		if err := strongdecomp.VerifyDecomposition(g, d, *maxDiam, *strong); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q", doc.Mode)
	}
	if *rerun {
		return rerunCheck(g, &doc)
	}
	return nil
}

// hostGraph materializes the graph the document's result lives on: from
// the graph file when -input is given (cross-checked against whatever the
// document recorded — node count and content hash), otherwise from the
// embedded edge list.
func hostGraph(doc *document, input string) (*strongdecomp.Graph, error) {
	if input == "" {
		if doc.EdgesOmitted {
			return nil, fmt.Errorf("document was produced with decompose -omit-edges; pass the graph file with -input")
		}
		g, err := strongdecomp.NewGraph(doc.N, doc.Edges)
		if err != nil {
			return nil, fmt.Errorf("rebuild graph: %w", err)
		}
		return g, nil
	}
	g, err := strongdecomp.LoadGraph(input)
	if err != nil {
		return nil, err
	}
	if g.N() != doc.N {
		return nil, fmt.Errorf("graph file has %d nodes, document says %d", g.N(), doc.N)
	}
	switch {
	case doc.Hash != "":
		if h := strongdecomp.HashGraph(g); h != doc.Hash {
			return nil, fmt.Errorf("graph file hash %s does not match document hash %s", h, doc.Hash)
		}
	case len(doc.Edges) > 0:
		// Documents from older decompose builds carry no hash; the
		// embedded edge list still pins the graph exactly.
		embedded, err := strongdecomp.NewGraph(doc.N, doc.Edges)
		if err != nil {
			return nil, fmt.Errorf("rebuild embedded graph: %w", err)
		}
		if strongdecomp.HashGraph(embedded) != strongdecomp.HashGraph(g) {
			return nil, fmt.Errorf("graph file does not match the document's embedded edge list")
		}
	}
	return g, nil
}

// rerunCheck reproduces the document's run through strongdecomp.Run with
// the document's Params and demands a bit-identical result — assignment,
// cluster count, and for decompositions the cluster colors and color
// count — the strongest cross-check available because every registered
// construction is deterministic in its seed.
func rerunCheck(g *strongdecomp.Graph, doc *document) error {
	p := strongdecomp.Params{Algorithm: doc.Algo, Kind: strongdecomp.KindDecompose, Seed: doc.Seed}
	if doc.Mode == "carve" {
		p.Kind, p.Eps = strongdecomp.KindCarve, doc.Eps
		if p.Eps == 0 {
			p.Eps = 1 // same default the base verification applies
		}
	}
	out, err := strongdecomp.Run(context.Background(), g, p)
	if err != nil {
		return fmt.Errorf("rerun: %w", err)
	}
	var got document
	if out.Carving != nil {
		got.Assign, got.K = out.Carving.Assign, out.Carving.K
	} else {
		d := out.Decomposition
		got.Assign, got.Color, got.K, got.Colors = d.Assign, d.Color, d.K, d.Colors
	}
	if got.K != doc.K || got.Colors != doc.Colors {
		return fmt.Errorf("rerun: k=%d colors=%d, document says k=%d colors=%d (algo %q, seed %d)",
			got.K, got.Colors, doc.K, doc.Colors, doc.Algo, doc.Seed)
	}
	if err := sameInts("assign", got.Assign, doc.Assign); err != nil {
		return fmt.Errorf("rerun: %w (algo %q, seed %d)", err, doc.Algo, doc.Seed)
	}
	if err := sameInts("color", got.Color, doc.Color); err != nil {
		return fmt.Errorf("rerun: %w (algo %q, seed %d)", err, doc.Algo, doc.Seed)
	}
	return nil
}

// sameInts reports the first entry at which a reproduced field differs
// from the document's.
func sameInts(field string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %s entries, document has %d", len(got), field, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, document says %d", field, i, got[i], want[i])
		}
	}
	return nil
}
