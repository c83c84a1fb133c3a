package bench

// This file is the substrate performance suite behind the committed
// BENCH_*.json trajectory artifacts: allocation and throughput
// measurements of the CSR graph core (build, parse, traverse, subgraph)
// and of the engine decompose/carve paths. cmd/bench emits the results as
// a machine-readable baseline; the root-level BenchmarkCSR* functions
// measure the same workloads interactively via `go test -bench`.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
)

// PerfRunner is the execution surface the engine-path cases measure:
// registry.Runner, which *strongdecomp.Engine satisfies.
type PerfRunner = registry.Runner

// PerfResult is one measured line of the substrate suite.
type PerfResult struct {
	// Name identifies the measured path, e.g. "parse-edgelist" or
	// "engine-decompose/chang-ghaffari".
	Name string `json:"name"`
	// Workload describes the input graph family and size.
	Workload string `json:"workload"`
	// Algorithm is the registry name for engine cases, empty for substrate
	// cases.
	Algorithm string `json:"algorithm,omitempty"`

	NsPerOp     int64   `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	NodesPerSec float64 `json:"nodesPerSec"`
	// PeakRSSKB is the process's resident high-water mark (ru_maxrss) after
	// this case ran. It is monotone over the suite: attribute growth, not
	// absolute values, to a case.
	PeakRSSKB int64 `json:"peakRSSKB"`
}

// CSRWorkloadGraph is the shared multi-component measurement workload:
// structurally different components (random, cycle, grid, tree) so engine
// runs exercise the per-component split, remap, and merge paths rather
// than the single-component fast path.
func CSRWorkloadGraph() *graph.Graph {
	return graph.DisjointUnion(
		graph.ConnectedGnp(512, 0.01, 7),
		graph.Cycle(257),
		graph.Grid(16, 16),
		graph.RandomTree(255, 3),
	)
}

// CSRWorkloadName describes CSRWorkloadGraph in the emitted artifact.
const CSRWorkloadName = "disjoint(gnp512+cycle257+grid16x16+tree255)"

// perfCase is one measurement body over a fixed workload of n nodes; run
// must execute the measured path iters times.
type perfCase struct {
	name string
	n    int
	run  func(iters int) error
}

// PerfSuite measures the substrate paths plus the engine decompose/carve
// path for every requested algorithm. newRunner builds the engine for one
// algorithm name (nil skips the engine cases); algos lists the registry
// names to measure. Short mode uses a fixed small iteration count instead
// of testing.Benchmark's one-second auto-tuning, so the CI smoke job
// covers every path in seconds.
func PerfSuite(newRunner func(algo string) PerfRunner, algos []string, short bool) ([]PerfResult, error) {
	w := CSRWorkloadGraph()
	var elData, metisData, jsonData bytes.Buffer
	if err := graphio.Write(&elData, w, graphio.FormatEdgeList); err != nil {
		return nil, err
	}
	if err := graphio.Write(&metisData, w, graphio.FormatMETIS); err != nil {
		return nil, err
	}
	if err := graphio.Write(&jsonData, w, graphio.FormatJSON); err != nil {
		return nil, err
	}
	comps := graph.Components(w, nil)
	dist := make([]int, w.N())

	cases := []perfCase{
		{"build-connectedgnp", 2048, func(iters int) error {
			for i := 0; i < iters; i++ {
				if g := graph.ConnectedGnp(2048, 4.0/2048, 7); g.N() != 2048 {
					return errors.New("bad build")
				}
			}
			return nil
		}},
		{"parse-edgelist", w.N(), parseCase(elData.Bytes(), graphio.FormatEdgeList)},
		{"parse-metis", w.N(), parseCase(metisData.Bytes(), graphio.FormatMETIS)},
		{"parse-json", w.N(), parseCase(jsonData.Bytes(), graphio.FormatJSON)},
		{"bfs", w.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				graph.BFS(w, nil, []int{0}, dist)
			}
			return nil
		}},
		{"components", w.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				if len(graph.Components(w, nil)) != 4 {
					return errors.New("want 4 components")
				}
			}
			return nil
		}},
		{"induced-subgraph", w.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				for _, c := range comps {
					if sub, _ := graph.InducedSubgraph(w, c); sub.N() != len(c) {
						return errors.New("bad subgraph")
					}
				}
			}
			return nil
		}},
		{"is-connected", w.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				for _, c := range comps {
					if !graph.IsConnected(w, c) {
						return errors.New("component disconnected")
					}
				}
			}
			return nil
		}},
	}
	if newRunner != nil {
		ctx := context.Background()
		for _, algo := range algos {
			if _, err := registry.Lookup(algo); err != nil {
				return nil, err
			}
			e := newRunner(algo)
			cases = append(cases,
				perfCase{"engine-decompose/" + algo, w.N(), func(iters int) error {
					for i := 0; i < iters; i++ {
						if _, err := e.Run(ctx, w, registry.Params{Kind: registry.KindDecompose, Seed: 42}); err != nil {
							return err
						}
					}
					return nil
				}},
				perfCase{"engine-carve/" + algo, w.N(), func(iters int) error {
					for i := 0; i < iters; i++ {
						if _, err := e.Run(ctx, w, registry.Params{Kind: registry.KindCarve, Eps: 0.5, Seed: 42}); err != nil {
							return err
						}
					}
					return nil
				}},
			)
		}
	}

	out := make([]PerfResult, 0, len(cases))
	for _, c := range cases {
		res, err := runPerfCase(c, short)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c.name, err)
		}
		res.Workload = CSRWorkloadName
		if i := len("engine-decompose/"); len(c.name) > i && c.name[:i] == "engine-decompose/" {
			res.Algorithm = c.name[i:]
		} else if i := len("engine-carve/"); len(c.name) > i && c.name[:i] == "engine-carve/" {
			res.Algorithm = c.name[i:]
		}
		out = append(out, res)
	}
	return out, nil
}

func parseCase(data []byte, f graphio.Format) func(iters int) error {
	return func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, err := graphio.Read(bytes.NewReader(data), f); err != nil {
				return err
			}
		}
		return nil
	}
}

// shortIters is the fixed per-case iteration count of the CI smoke run.
const shortIters = 5

func runPerfCase(c perfCase, short bool) (PerfResult, error) {
	var res PerfResult
	res.Name = c.name
	if short {
		// Warm pools and caches once, then take one timed, GC-quiesced
		// measurement over a fixed iteration count.
		if err := c.run(1); err != nil {
			return res, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := c.run(shortIters); err != nil {
			return res, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		res.NsPerOp = elapsed.Nanoseconds() / shortIters
		res.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / shortIters
		res.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / shortIters
	} else {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if err := c.run(b.N); err != nil {
				runErr = err
				b.FailNow()
			}
		})
		if runErr != nil {
			return res, runErr
		}
		res.NsPerOp = r.NsPerOp()
		res.AllocsPerOp = r.AllocsPerOp()
		res.BytesPerOp = r.AllocedBytesPerOp()
	}
	res.PeakRSSKB = peakRSSKB()
	if res.NsPerOp > 0 {
		res.NodesPerSec = float64(c.n) / (float64(res.NsPerOp) / 1e9)
	}
	return res, nil
}

// FormatPerf renders results as an aligned text block (cmd/bench default
// output).
func FormatPerf(results []PerfResult) string {
	var sb bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&sb, "%-44s %12d ns/op %10d B/op %8d allocs/op %14.0f nodes/s rss=%dKB\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.NodesPerSec, r.PeakRSSKB)
	}
	return sb.String()
}
