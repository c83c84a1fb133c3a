// Command decompose runs a decomposition or ball carving on a generated
// graph — or a real graph file — and emits the result as JSON (graph,
// assignment, colors, stats), suitable for piping into cmd/verify.
//
// The -algo flag accepts any name in the algorithm registry (see
// -list-algos); -timeout bounds the run via context cancellation. With
// -input the graph is read from a file (edge list, METIS, JSON, or a
// binary .csr snapshot, detected by extension — snapshots open via mmap
// with no parse) instead of a generator; -save-graph writes the input
// graph back out in any format, so one text parse can be amortized into
// a .csr snapshot for every later run; -omit-edges drops the edge list
// from the output document for large graphs (pair it with verify -input
// so the verifier reloads the graph from the same file).
// With -stream the result is emitted as an NDJSON cluster stream (header,
// one record per cluster, end record) instead of one JSON document, so
// huge results pipe without a second in-memory copy.
//
// Internally the flag set resolves into one canonical strongdecomp.Params
// executed with strongdecomp.Run — the same request value the serving
// layer validates and caches on, run on the same Engine path (connected
// components decomposed separately and merged), so the server at the same
// seed answers with the same document.
//
// Usage:
//
//	decompose -gen gnp -n 1024 -algo chang-ghaffari [-carve] [-eps 0.5] [-seed 1] [-timeout 30s]
//	decompose -input web.metis -algo mpx [-omit-edges]
//	decompose -gen grid -n 4096 -stream | consumer
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"strongdecomp"
	"strongdecomp/internal/graphio"
)

// Result is the JSON document exchanged between decompose and verify.
type Result struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges,omitempty"`
	// EdgesOmitted distinguishes a document produced with -omit-edges
	// (verify needs -input) from one whose graph genuinely has no edges.
	EdgesOmitted bool    `json:"edgesOmitted,omitempty"`
	Source       string  `json:"source,omitempty"` // graph file, when -input was used
	Hash         string  `json:"hash,omitempty"`   // content hash of the graph
	Mode         string  `json:"mode"`             // "carve" or "decompose"
	Eps          float64 `json:"eps,omitempty"`
	Algo         string  `json:"algo"`
	Seed         int64   `json:"seed"`
	Assign       []int   `json:"assign"`
	Color        []int   `json:"color,omitempty"`
	K            int     `json:"k"`
	Colors       int     `json:"colors,omitempty"`
	Rounds       int64   `json:"rounds"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "decompose:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		gen       = flag.String("gen", "gnp", "graph family: gnp|grid|path|tree|expander|subdivided|clusters|torus|hypercube")
		n         = flag.Int("n", 1024, "approximate node count")
		input     = flag.String("input", "", "read the graph from this file (.el/.edges/.txt, .metis/.graph, .json, .csr snapshot) instead of -gen")
		omitEdges = flag.Bool("omit-edges", false, "omit the edge list from the output document (verify needs -input then)")
		saveGraph = flag.String("save-graph", "", "also write the input graph to this file (format by extension; .csr makes a binary snapshot that reloads via mmap)")
		algo      = flag.String("algo", "chang-ghaffari", "registered algorithm: "+strings.Join(strongdecomp.Algorithms(), "|"))
		carve     = flag.Bool("carve", false, "run a ball carving instead of a full decomposition")
		eps       = flag.Float64("eps", 0.5, "carving boundary parameter")
		seed      = flag.Int64("seed", 1, "generator / algorithm seed")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0: no limit)")
		stream    = flag.Bool("stream", false, "emit the result as an NDJSON cluster stream instead of one JSON document")
		listAlgos = flag.Bool("list-algos", false, "list the registered algorithms and exit")
	)
	flag.Parse()

	if *listAlgos {
		return printAlgorithms(os.Stdout)
	}
	if *omitEdges && *input == "" && *saveGraph == "" {
		// A generated graph exists nowhere but in this document; omitting
		// its edges would make the output unverifiable. -save-graph counts
		// as an on-disk home for the graph (verify -input that file).
		return fmt.Errorf("-omit-edges requires -input or -save-graph (verify reloads the graph from that file)")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		g   *strongdecomp.Graph
		err error
	)
	if *input != "" {
		g, err = strongdecomp.LoadGraph(*input)
	} else {
		g, err = makeGraph(*gen, *n, *seed)
	}
	if err != nil {
		return err
	}
	if *saveGraph != "" {
		if err := strongdecomp.SaveGraph(*saveGraph, g); err != nil {
			return err
		}
	}
	// One canonical Params value carries the whole flag set into the run.
	p := strongdecomp.Params{
		Algorithm: *algo,
		Kind:      strongdecomp.KindDecompose,
		Seed:      *seed,
		Meter:     true,
	}
	if *carve {
		p.Kind, p.Eps = strongdecomp.KindCarve, *eps
	}
	out, err := strongdecomp.Run(ctx, g, p)
	if err != nil {
		return err
	}

	if *stream {
		hdr := graphio.StreamHeader{
			Kind: string(out.Params.Kind), Algo: out.Params.Algorithm,
			GraphHash: strongdecomp.HashGraph(g), N: g.N(),
			Eps: out.Params.Eps, Seed: out.Params.Seed, Rounds: out.Rounds,
		}
		if out.Carving != nil {
			hdr.K = out.Carving.K
			return graphio.WriteClusterStream(os.Stdout, hdr, out.Carving.Clusters())
		}
		hdr.K, hdr.Colors = out.Decomposition.K, out.Decomposition.Colors
		return graphio.WriteClusterStream(os.Stdout, hdr, out.Decomposition.Clusters())
	}

	source := *input
	if source == "" {
		source = *saveGraph // a generated graph saved to disk lives there
	}
	res := Result{
		N: g.N(), Source: source, Hash: strongdecomp.HashGraph(g),
		Algo: out.Params.Algorithm, Seed: *seed, Rounds: out.Rounds,
	}
	if *omitEdges {
		res.EdgesOmitted = true
	} else {
		res.Edges = g.Edges()
	}
	if out.Carving != nil {
		res.Mode, res.Eps = "carve", *eps
		res.Assign, res.K = out.Carving.Assign, out.Carving.K
	} else {
		res.Mode = "decompose"
		dec := out.Decomposition
		res.Assign, res.Color, res.K, res.Colors = dec.Assign, dec.Color, dec.K, dec.Colors
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// printAlgorithms renders the registry as a table: name, model, diameter
// notion, and paper citation.
func printAlgorithms(out *os.File) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "name\tmodel\tdiameter\treference")
	for _, info := range strongdecomp.AlgorithmInfos() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", info.Name, info.Model, info.Diameter, info.Reference)
	}
	return w.Flush()
}

func makeGraph(gen string, n int, seed int64) (*strongdecomp.Graph, error) {
	switch gen {
	case "gnp":
		return strongdecomp.ConnectedGnpGraph(n, 4/float64(n), seed), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return strongdecomp.GridGraph(side, side), nil
	case "torus":
		side := 3
		for side*side < n {
			side++
		}
		return strongdecomp.TorusGraph(side, side), nil
	case "path":
		return strongdecomp.PathGraph(n), nil
	case "tree":
		return strongdecomp.BinaryTreeGraph(n), nil
	case "expander":
		return strongdecomp.ExpanderGraph(n, 4, seed), nil
	case "subdivided":
		return strongdecomp.SubdividedExpanderGraph(n/16+4, 4, 8, seed), nil
	case "clusters":
		return strongdecomp.ClusterGraphGen(8, n/8+1, 0.3, seed), nil
	case "hypercube":
		dim := 1
		for 1<<dim < n {
			dim++
		}
		return strongdecomp.HypercubeGraph(dim), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", gen)
	}
}
