// Command tables regenerates the paper's evaluation artifacts: Table 1
// (network decomposition), Table 2 (ball carving), the Theorem 2.1 round
// accounting, the Section 3 barrier experiment, the ABCP96 message-size
// contrast, and the scaling figures with fitted log-exponents.
//
// Usage:
//
//	tables [-n 1024] [-eps 0.5] [-seed 1] [-scaling] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"strongdecomp"
	"strongdecomp/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 1024, "workload size for the tables")
		family    = flag.String("family", "cycle", "workload family (cycle|path|gnp|grid|subdivided) or a graph file: file:<path> / <path>.el|.metis|.json")
		eps       = flag.Float64("eps", 0.5, "boundary parameter for Table 2")
		seed      = flag.Int64("seed", 1, "workload seed")
		scaling   = flag.Bool("scaling", false, "also run the n-sweep scaling figures (slower)")
		asJSON    = flag.Bool("json", false, "emit JSON instead of text tables")
		algos     = flag.String("algos", "", "comma-separated registry names to restrict Tables 1/2 and scaling to (default: all registered)")
		listAlgos = flag.Bool("list-algos", false, "list the registered algorithms and exit")
	)
	flag.Parse()

	if *listAlgos {
		fmt.Println(strings.Join(strongdecomp.Algorithms(), "\n"))
		return nil
	}
	var only []string
	if *algos != "" {
		for _, name := range strings.Split(*algos, ",") {
			if name = strings.TrimSpace(name); name != "" {
				only = append(only, name)
			}
		}
	}

	t1, err := bench.Table1(*family, *n, *seed, only...)
	if err != nil {
		return err
	}
	t2, err := bench.Table2(*family, *n, *eps, *seed, only...)
	if err != nil {
		return err
	}
	acc, err := bench.Thm21Accounting(*family, *n, *eps, *seed)
	if err != nil {
		return err
	}
	barrier, err := bench.Barrier(24, 4, 2*log2(*n), *eps, *seed)
	if err != nil {
		return err
	}
	msgs, err := bench.MessageSizes(min(*n, 256), *seed)
	if err != nil {
		return err
	}
	edge, err := bench.TableEdge(*family, *n, *eps, *seed)
	if err != nil {
		return err
	}
	ablation, err := bench.AblateWeakCarver(*family, *n, *eps, *seed)
	if err != nil {
		return err
	}

	var scalingPts []bench.ScalingPoint
	if *scaling {
		scalingPts, err = bench.Scaling(*family, []int{256, 512, 1024, 2048, 4096}, *seed, only...)
		if err != nil {
			return err
		}
	}

	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(map[string]any{
			"table1":     t1,
			"table2":     t2,
			"table2edge": edge,
			"accounting": acc,
			"barrier":    barrier,
			"messages":   msgs,
			"scaling":    scalingPts,
		})
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Table 1: network decomposition (n=%d, measured vs paper)\n", *n)
	fmt.Fprintln(w, "type\tmodel\talgorithm\tcolors\tstrongD\tweakD\trounds\tpaper colors\tpaper D\tpaper rounds")
	for _, r := range t1 {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\t%d\t%d\t%s\t%s\t%s\n",
			r.Type, r.Model, r.Algorithm, r.Colors, diam(r.StrongDiam), r.WeakDiam, r.Rounds,
			r.PaperColors, r.PaperDiam, r.PaperRounds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Table 2: ball carving (n=%d, eps=%.3f)\n", *n, *eps)
	fmt.Fprintln(w, "type\tmodel\talgorithm\tstrongD\tweakD\trounds\tdead\tpaper D\tpaper rounds")
	for _, r := range t2 {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d\t%.3f\t%s\t%s\n",
			r.Type, r.Model, r.Algorithm, diam(r.StrongDiam), r.WeakDiam, r.Rounds, r.DeadFrac,
			r.PaperDiam, r.PaperRounds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Table 2, edge version (Thm 2.2 for edges): clusters=%d cut=%d (%.3f of edges) maxDiam=%d rounds=%d\n",
		edge.Clusters, edge.CutEdges, edge.CutFraction, edge.MaxDiam, edge.Rounds)
	fmt.Fprintln(w)
	writeAccounting(w, acc)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Section 3 barrier (Lemma 3.1 outcomes and diameters)")
	fmt.Fprintln(w, "graph\tn\tcuts\tcomponents\tmaxDiam\tlog2(n)")
	for _, b := range barrier {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", b.Name, b.N, b.CutOutcomes, b.CompOutcome, b.MaxDiam, b.Log2N)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Ablation: Theorem 2.1 instantiated with different weak carvers (black-box property)")
	fmt.Fprintln(w, "carver\tstrongD\trounds\tdead\tclusters")
	for _, a := range ablation {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.3f\t%d\n", a.Carver, a.StrongDiam, a.Rounds, a.DeadFrac, a.Clusters)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Message sizes (n=%d): CONGEST budget=%d bits, engine max=%d bits, ABCP96 max=%d bits (gathered %d edges)\n",
		msgs.N, msgs.CongestBudget, msgs.EngineMaxBits, msgs.ABCPMaxBits, msgs.ABCPGatherEdges)

	if *scaling {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Scaling (rounds vs n) with fitted log-exponent")
		byAlgo := map[string][]bench.ScalingPoint{}
		for _, p := range scalingPts {
			byAlgo[p.Algorithm] = append(byAlgo[p.Algorithm], p)
		}
		for algo, pts := range byAlgo {
			var ns []int
			var vals []int64
			for _, p := range pts {
				ns = append(ns, p.N)
				vals = append(vals, p.Rounds)
			}
			fmt.Fprintf(w, "%s\tk=%.2f\t", algo, bench.FitLogExponent(ns, vals))
			for _, p := range pts {
				fmt.Fprintf(w, "n=%d:%d ", p.N, p.Rounds)
			}
			fmt.Fprintln(w)
		}
	}
	return w.Flush()
}

// writeAccounting prints the Theorem 2.1 accounting block, its rounds
// per meter label in label order.
func writeAccounting(w io.Writer, acc *bench.Accounting) {
	fmt.Fprintf(w, "Theorem 2.1 accounting (n=%d, eps=%.3f): rounds=%d diam=%d bound=%d dead=%.3f\n",
		acc.N, acc.Eps, acc.Rounds, acc.StrongDiam, acc.DiamBound, acc.DeadFrac)
	for _, label := range slices.Sorted(maps.Keys(acc.Components)) {
		fmt.Fprintf(w, "  %s\t%d\n", label, acc.Components[label])
	}
}

func diam(d int) string {
	if d < 0 {
		return "disc"
	}
	return fmt.Sprintf("%d", d)
}

func log2(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
