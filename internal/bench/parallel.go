package bench

// Parallel-traversal suite (BENCH_pr10): the frontier-parallel BFS
// primitives and the engine's single-giant-component decompose path
// measured across worker counts, on a workload that is itself produced by
// the out-of-core pipeline — the generated component is streamed through
// graphio.BuildCSRStream into a .csr snapshot and mmap-loaded back, so
// the external build and the mmap open are measured rows, not fixtures.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
)

// ParallelWorkers are the fan-out widths the suite sweeps.
var ParallelWorkers = []int{1, 2, 4, 8}

// ParallelSuite measures the parallel-traversal rows. newRunner builds a
// single-component-parallel engine for a worker count (cmd/bench passes
// WithParallelBFS(true) with threshold 0); csrPath, when non-empty,
// mmap-loads an existing snapshot as the traversal workload instead of
// generating one (the -csr flag), skipping the stream-build row.
func ParallelSuite(newRunner func(workers int) PerfRunner, short bool, csrPath string) ([]PerfResult, error) {
	travN, travDeg := 150_000, 14.0
	decompN, decompDeg := 40_000, 6.0
	if short {
		travN, travDeg = 80_000, 8.0
		decompN, decompDeg = 16_000, 6.0
	}

	tmp, err := os.MkdirTemp("", "bench-par-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var out []PerfResult
	var travGraph *graph.Graph
	travLoad := csrPath
	if csrPath == "" {
		// Generate the single connected component, then stream it through
		// the out-of-core builder: edge stream -> sorted runs -> merge ->
		// snapshot. The stream-build row measures that whole pipeline.
		gen := graph.ConnectedGnp(travN, travDeg/float64(travN), 31)
		travLoad = filepath.Join(tmp, "workload.csr")
		workload := fmt.Sprintf("connected-gnp(n=%d,deg=%.0f)", travN, travDeg)
		res, err := runPerfCase(perfCase{"stream-build-csr", gen.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				if err := streamOut(travLoad, gen); err != nil {
					return err
				}
			}
			return nil
		}}, short)
		if err != nil {
			return nil, fmt.Errorf("bench: stream-build-csr: %w", err)
		}
		res.Workload = workload
		out = append(out, res)
	}

	travGraph, err = graphio.LoadCSR(travLoad)
	if err != nil {
		return nil, fmt.Errorf("bench: load traversal workload: %w", err)
	}
	workload := filepath.Base(travLoad)
	if csrPath == "" {
		workload = fmt.Sprintf("connected-gnp(n=%d,deg=%.0f) via stream+mmap", travN, travDeg)
	}
	res, err := runPerfCase(perfCase{"csr-mmap-load", travGraph.N(), func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, err := graphio.LoadCSR(travLoad); err != nil {
				return err
			}
		}
		return nil
	}}, short)
	if err != nil {
		return nil, fmt.Errorf("bench: csr-mmap-load: %w", err)
	}
	res.Workload = workload
	out = append(out, res)

	g := travGraph
	dist := make([]int, g.N())
	for _, w := range ParallelWorkers {
		w := w
		res, err := runPerfCase(perfCase{fmt.Sprintf("par-bfs/w%d", w), g.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				if order := graph.ParallelBFS(g, nil, []int{0}, dist, w); len(order) != g.N() {
					return errors.New("bfs did not reach the whole component")
				}
			}
			return nil
		}}, short)
		if err != nil {
			return nil, fmt.Errorf("bench: par-bfs/w%d: %w", w, err)
		}
		res.Workload = workload
		out = append(out, res)
	}
	for _, w := range []int{1, ParallelWorkers[len(ParallelWorkers)-1]} {
		w := w
		res, err := runPerfCase(perfCase{fmt.Sprintf("par-components/w%d", w), g.N(), func(iters int) error {
			for i := 0; i < iters; i++ {
				if comps := graph.ParallelComponents(g, nil, w); len(comps) != 1 {
					return errors.New("workload is not one component")
				}
			}
			return nil
		}}, short)
		if err != nil {
			return nil, fmt.Errorf("bench: par-components/w%d: %w", w, err)
		}
		res.Workload = workload
		out = append(out, res)
	}

	if newRunner != nil {
		dg := graph.ConnectedGnp(decompN, decompDeg/float64(decompN), 43)
		dWorkload := fmt.Sprintf("connected-gnp(n=%d,deg=%.0f) single component", decompN, decompDeg)
		ctx := context.Background()
		for _, w := range ParallelWorkers {
			e := newRunner(w)
			res, err := runPerfCase(perfCase{fmt.Sprintf("decompose-giant/w%d", w), dg.N(), func(iters int) error {
				for i := 0; i < iters; i++ {
					if _, err := e.Run(ctx, dg, registry.Params{Kind: registry.KindDecompose, Seed: 42}); err != nil {
						return err
					}
				}
				return nil
			}}, short)
			if err != nil {
				return nil, fmt.Errorf("bench: decompose-giant/w%d: %w", w, err)
			}
			res.Workload = dWorkload
			out = append(out, res)
		}
	}
	return out, nil
}

// streamOut feeds g's edges (u < v once each) through BuildCSRStream.
func streamOut(path string, g *graph.Graph) error {
	return graphio.BuildCSRStream(path, g.N(), func(emit func(u, v int)) error {
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					emit(u, v)
				}
			}
		}
		return nil
	})
}
