// Benchmarks regenerating the paper's evaluation artifacts (DESIGN.md
// experiments E1–E8). Each benchmark reports the *measured* quantities of
// its table row — colors, diameters, simulated CONGEST rounds — via
// b.ReportMetric, so `go test -bench . -benchmem` prints the reproduced
// tables alongside wall-clock costs. EXPERIMENTS.md interprets the output
// against the paper's asymptotic claims.
package strongdecomp

import (
	"fmt"
	"math/rand"
	"testing"

	"strongdecomp/internal/bench"
	"strongdecomp/internal/congest"
	"strongdecomp/internal/graph"
)

const (
	benchN    = 1024
	benchSeed = 1
)

func reportRow(b *testing.B, r bench.Row) {
	b.ReportMetric(float64(r.Colors), "colors")
	b.ReportMetric(float64(r.StrongDiam), "strongDiam")
	b.ReportMetric(float64(r.WeakDiam), "weakDiam")
	b.ReportMetric(float64(r.Rounds), "congestRounds")
	b.ReportMetric(float64(r.Clusters), "clusters")
}

func table1Row(b *testing.B, algo string) {
	b.Helper()
	var row bench.Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1("cycle", benchN, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.Algorithm == algo {
				row, found = r, true
			}
		}
		if !found {
			b.Fatalf("algorithm %s missing from table 1", algo)
		}
	}
	reportRow(b, row)
}

// --- E1: Table 1, one benchmark per row ---------------------------------

func BenchmarkTable1_WeakRandomized_LinialSaks(b *testing.B) {
	table1Row(b, "linial-saks")
}

func BenchmarkTable1_WeakDeterministic_RozhonGhaffari(b *testing.B) {
	table1Row(b, "rozhon-ghaffari")
}

func BenchmarkTable1_StrongRandomized_MPX(b *testing.B) {
	table1Row(b, "mpx-elkin-neiman")
}

func BenchmarkTable1_StrongDeterministic_SequentialBaseline(b *testing.B) {
	table1Row(b, "sequential-baseline")
}

func BenchmarkTable1_StrongDeterministic_Theorem23(b *testing.B) {
	table1Row(b, "chang-ghaffari")
}

func BenchmarkTable1_StrongDeterministic_Theorem34(b *testing.B) {
	table1Row(b, "chang-ghaffari-improved")
}

// --- E2: Table 2, one benchmark per row across the eps sweep -------------

func table2Row(b *testing.B, algo string, eps float64) {
	b.Helper()
	var row bench.Row
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2("cycle", benchN, eps, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.Algorithm == algo {
				row, found = r, true
			}
		}
		if !found {
			b.Fatalf("algorithm %s missing from table 2", algo)
		}
	}
	reportRow(b, row)
	b.ReportMetric(row.DeadFrac, "deadFrac")
}

func BenchmarkTable2_WeakRandomized_LinialSaks(b *testing.B) {
	table2Row(b, "linial-saks", 0.5)
}

func BenchmarkTable2_WeakDeterministic_RozhonGhaffari(b *testing.B) {
	table2Row(b, "rozhon-ghaffari", 0.5)
}

func BenchmarkTable2_StrongRandomized_MPX(b *testing.B) {
	table2Row(b, "mpx-elkin-neiman", 0.5)
}

func BenchmarkTable2_StrongDeterministic_Theorem22(b *testing.B) {
	table2Row(b, "chang-ghaffari", 0.5)
}

func BenchmarkTable2_StrongDeterministic_Theorem33(b *testing.B) {
	table2Row(b, "chang-ghaffari-improved", 0.5)
}

func BenchmarkTable2_EpsSweep_Theorem22(b *testing.B) {
	for _, eps := range []float64{0.5, 0.25, 0.125} {
		b.Run(fmt.Sprintf("eps=%.3f", eps), func(b *testing.B) {
			table2Row(b, "chang-ghaffari", eps)
		})
	}
}

// --- Table 2 edge-version remark ------------------------------------------

func BenchmarkTable2_EdgeVersion_Theorem22(b *testing.B) {
	var row *bench.EdgeRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.TableEdge("cycle", benchN, 0.5, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.Clusters), "clusters")
	b.ReportMetric(float64(row.CutEdges), "cutEdges")
	b.ReportMetric(row.CutFraction, "cutFraction")
	b.ReportMetric(float64(row.MaxDiam), "strongDiam")
	b.ReportMetric(float64(row.Rounds), "congestRounds")
}

// --- Ablation: Theorem 2.1 is black-box in the weak carver -----------------

func BenchmarkAblation_WeakCarverChoice(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.AblateWeakCarver("cycle", benchN, 0.5, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Carver {
		case "rg20-deterministic":
			b.ReportMetric(float64(r.StrongDiam), "diamRG20")
		case "linial-saks-randomized":
			b.ReportMetric(float64(r.StrongDiam), "diamLS")
		}
	}
}

// --- E3: Theorem 2.1 term accounting -------------------------------------

func BenchmarkThm21_Accounting(b *testing.B) {
	var acc *bench.Accounting
	for i := 0; i < b.N; i++ {
		var err error
		acc, err = bench.Thm21Accounting("cycle", benchN, 0.5, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(acc.Rounds), "congestRounds")
	b.ReportMetric(float64(acc.Components["thm21/gather"]), "gatherRounds")
	b.ReportMetric(float64(acc.Components["thm21/bfs"]), "bfsRounds")
	b.ReportMetric(float64(acc.StrongDiam), "strongDiam")
	b.ReportMetric(float64(acc.DiamBound), "diamBound2R")
}

// --- E4: Lemma 3.1 outcomes and the Section 3 barrier --------------------

func BenchmarkBarrier(b *testing.B) {
	var res []bench.BarrierResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Barrier(32, 4, 10, 0.5, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		name := "torusDiam"
		if r.Name == "subdivided-expander" {
			name = "barrierDiam"
		}
		b.ReportMetric(float64(r.MaxDiam), name)
	}
}

// --- E5: message sizes ----------------------------------------------------

func BenchmarkMessageSize_CongestVsABCP(b *testing.B) {
	var res *bench.MessageSizeResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.MessageSizes(256, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CongestBudget), "congestBudgetBits")
	b.ReportMetric(float64(res.EngineMaxBits), "engineMaxBits")
	b.ReportMetric(float64(res.ABCPMaxBits), "abcpMaxBits")
}

// --- E6/E7: scaling figures ------------------------------------------------

func BenchmarkScaling_RoundsAndDiameter(b *testing.B) {
	ns := []int{256, 512, 1024}
	var pts []bench.ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.Scaling("cycle", ns, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	series := map[string][]bench.ScalingPoint{}
	for _, p := range pts {
		series[p.Algorithm] = append(series[p.Algorithm], p)
	}
	for algo, ps := range series {
		var xs []int
		var rounds []int64
		for _, p := range ps {
			xs = append(xs, p.N)
			rounds = append(rounds, p.Rounds)
		}
		b.ReportMetric(bench.FitLogExponent(xs, rounds), "logExp_"+algo)
	}
}

// --- E8: engine vs cost model ----------------------------------------------

func BenchmarkCongest_BFS(b *testing.B) {
	g := graph.Grid(32, 32)
	var met *congest.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		_, _, met, err = congest.RunBFS(g, 0, congest.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(met.Rounds), "protocolRounds")
	b.ReportMetric(float64(met.MaxMessageBits), "maxMsgBits")
}

func BenchmarkCongest_MPXRace(b *testing.B) {
	g := graph.Grid(32, 32)
	rng := rand.New(rand.NewSource(benchSeed))
	shifts := congest.GeometricShifts(g.N(), 0.25, 40, rng)
	var met *congest.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		_, met, err = congest.RunRace(g, shifts, congest.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(met.Rounds), "protocolRounds")
	b.ReportMetric(float64(met.MaxMessageBits), "maxMsgBits")
}

// --- library-level micro benchmarks ----------------------------------------

func BenchmarkBallCarve_ChangGhaffari(b *testing.B) {
	g := CycleGraph(benchN)
	for i := 0; i < b.N; i++ {
		if _, err := BallCarve(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBallCarve_Improved(b *testing.B) {
	g := CycleGraph(benchN)
	for i := 0; i < b.N; i++ {
		if _, err := BallCarve(g, 0.5, WithAlgorithmName("chang-ghaffari-improved")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompose_ChangGhaffari(b *testing.B) {
	g := CycleGraph(benchN)
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(g); err != nil {
			b.Fatal(err)
		}
	}
}
