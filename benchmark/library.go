package main

// Library workloads: a closed loop with one caller running Engine.Run
// (chang-ghaffari) on a graph loaded from its edge-list file, with the
// engine the facade builds by default (GOMAXPROCS workers, no frontier
// parallelism). The traced pass runs the same construction through a
// registered copy that times the weak carver and every per-component
// run; its outputs must be bit-identical to the untraced ones.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"strongdecomp"
	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
)

// tracedAlgorithm is the registry name of the traced construction.
const tracedAlgorithm = "benchmark-traced-chang-ghaffari"

func runLibrary(ctx context.Context, dir string, sp *spec) (*childResult, error) {
	z := sizing(sp.Tiny)
	res := &childResult{Layer: map[string]float64{}}

	var g *strongdecomp.Graph
	loads := make([]float64, 0, z.librarySetups)
	for i := 0; i < z.librarySetups; i++ {
		start := time.Now()
		lg, err := strongdecomp.LoadGraph(sp.Graph)
		if err != nil {
			return nil, fmt.Errorf("load graph: %w", err)
		}
		loads = append(loads, time.Since(start).Seconds())
		g = lg
	}
	res.SetupS = median(loads)
	res.Layer["graphio.load_s"] = res.SetupS

	eng := strongdecomp.NewEngine()
	p := strongdecomp.Params{Algorithm: strongdecomp.DefaultAlgorithm, Seed: sp.Seed, Meter: true}
	// The warm-up ops' output passes the full check; a measured op is
	// correct when it reproduces that output bit for bit, which is cheaper
	// to check and keeps the check's allocations out of runtime.*.
	var want string
	for i := 0; i < z.warmOps; i++ {
		out, err := eng.Run(ctx, g, p)
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		d := out.Decomposition
		if err := checkDecomposition(g, d.Assign, d.Color, d.K, true); err != nil {
			res.note("warm-up op: %v", err)
		}
		want = digest(d)
	}

	runCtx := ctx
	var tr *libTrace
	stopProfile := func() error { return nil }
	if sp.Trace {
		if err := strongdecomp.Register(tracedAlgorithm, tracedFactory); err != nil {
			return nil, fmt.Errorf("register traced construction: %w", err)
		}
		p.Algorithm = tracedAlgorithm
		tr = &libTrace{labels: map[string]int64{}}
		// A collector on the context turns on the engine's stage clock
		// (Outcome.Stages); its nil logger emits no spans.
		runCtx = obs.WithRequest(ctx, obs.NewCollector(nil), obs.NewTrace())
		stop, err := startProfile(dir)
		if err != nil {
			return nil, err
		}
		stopProfile = stop
	}

	m0 := readMem()
	if tr != nil {
		tr.origin = time.Now()
	}
	deadline := time.Now().Add(time.Duration(sp.Seconds * float64(time.Second)))
	for res.Attempted == 0 || time.Now().Before(deadline) {
		opCtx := runCtx
		var op *opTrace
		if tr != nil {
			op = &opTrace{}
			opCtx = context.WithValue(runCtx, opTraceKey{}, op)
		}
		start := time.Now()
		out, err := eng.Run(opCtx, g, p)
		end := time.Now()
		if err == nil && digest(out.Decomposition) != want {
			err = fmt.Errorf("output differs from the untraced warm-up output")
		}
		if err == nil && tr != nil {
			err = tr.add(op, interval{start, end}, out)
		}
		res.record(ms(end.Sub(start)), err)
	}
	m0.perOp(readMem(), res.Attempted, res.Layer)
	if err := stopProfile(); err != nil {
		return nil, fmt.Errorf("stop profile: %w", err)
	}
	if tr != nil {
		tr.report(res.Layer)
		if err := writeSpans(filepath.Join(dir, spansFile), tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// digest is a SHA-256 over a decomposition's assignment and colouring.
func digest(d *cluster.Decomposition) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(d.K)
	put(d.Colors)
	for _, c := range d.Assign {
		put(c)
	}
	for _, c := range d.Color {
		put(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opTraceKey keys the current op's trace in the context the engine hands
// to every per-component run.
type opTraceKey struct{}

// opTrace collects one op's per-component spans. Components run
// concurrently on the engine's pool.
type opTrace struct {
	mu    sync.Mutex
	comps []compTrace
}

// compTrace is one per-component run of the traced construction.
type compTrace struct {
	span    interval
	rg      time.Duration // inside rg.Carve
	rgCalls int
	carves  int // StrongCarveContext invocations
	meter   *rounds.Meter
}

func tracedFactory() strongdecomp.Decomposer {
	return strongdecomp.DecomposerFuncs{
		Meta: strongdecomp.AlgorithmInfo{
			Name: tracedAlgorithm, Model: "deterministic", Diameter: "strong", Order: 1000,
		},
		DecomposeFunc: tracedDecompose,
	}
}

// tracedDecompose is chang-ghaffari's decomposition (DecomposeRGContext
// without frontier parallelism) with a timing wrapper around the weak
// carver.
func tracedDecompose(ctx context.Context, g *graph.Graph, o strongdecomp.RunOptions) (*cluster.Decomposition, error) {
	ct := compTrace{span: interval{start: time.Now()}, meter: o.Meter}
	weak := func(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
		start := time.Now()
		c, err := rg.Carve(g, nodes, eps, m)
		ct.rg += time.Since(start)
		ct.rgCalls++
		return c, err
	}
	carver := func(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
		ct.carves++
		return core.StrongCarveContext(ctx, g, nodes, eps, weak, m)
	}
	d, err := core.DecomposeContext(ctx, g, carver, o.Meter)
	ct.span.end = time.Now()
	if op, ok := ctx.Value(opTraceKey{}).(*opTrace); ok {
		op.mu.Lock()
		op.comps = append(op.comps, ct)
		op.mu.Unlock()
	}
	return d, err
}

// libTrace sums the traced ops' layer measurements and keeps their
// spans.
type libTrace struct {
	origin               time.Time // start of the measured window
	spans                []spanLine
	ops                  int
	rg, coreSelf, engine time.Duration
	split, merge         time.Duration
	rgCalls, carves      int
	comps                int
	clusters, colors     int
	messages             int64
	labels               map[string]int64 // rounds per meter label
}

// add folds one traced op. The per-component meters, folded the way the
// engine folds them, must reproduce the outcome's round total.
func (t *libTrace) add(op *opTrace, span interval, out *strongdecomp.Outcome) error {
	op.mu.Lock()
	defer op.mu.Unlock()
	fold := rounds.NewMeter()
	for _, c := range op.comps {
		fold.MergeParallel(c.meter)
	}
	if fold.Rounds() != out.Rounds {
		return fmt.Errorf("component meters fold to %d rounds, outcome reports %d", fold.Rounds(), out.Rounds)
	}
	ivs := make([]interval, len(op.comps))
	for i, c := range op.comps {
		ivs[i] = c.span
		t.rg += c.rg
		t.coreSelf += c.span.end.Sub(c.span.start) - c.rg
		t.rgCalls += c.rgCalls
		t.carves += c.carves
	}
	t.ops++
	t.spans = append(t.spans, spanLine{Stage: "op", Op: t.ops,
		StartUS: us(span.start.Sub(t.origin)), DurUS: us(span.end.Sub(span.start))})
	for _, c := range op.comps {
		t.spans = append(t.spans, spanLine{Stage: "component", Op: t.ops,
			StartUS: us(c.span.start.Sub(t.origin)), DurUS: us(c.span.end.Sub(c.span.start)),
			RGUS: us(c.rg), RGCalls: c.rgCalls, Carves: c.carves})
	}
	t.engine += span.end.Sub(span.start) - covered(span, ivs)
	for _, s := range out.Stages {
		switch s.Name {
		case "split":
			t.split += s.Elapsed
		case "merge":
			t.merge += s.Elapsed
		}
	}
	t.comps += len(op.comps)
	t.clusters += out.Decomposition.K
	t.colors += out.Decomposition.Colors
	t.messages += fold.Messages()
	for label, r := range fold.Components() {
		t.labels[label] += r
	}
	return nil
}

// report writes the rg, core and engine metrics as per-op means.
func (t *libTrace) report(layer map[string]float64) {
	if t.ops == 0 {
		return
	}
	n := float64(t.ops)
	per := func(x int64) float64 { return float64(x) / n }
	layer["rg.ms"] = ms(t.rg) / n
	if busy := t.rg + t.coreSelf + t.engine; busy > 0 {
		layer["rg.share"] = t.rg.Seconds() / busy.Seconds()
	}
	layer["rg.calls"] = per(int64(t.rgCalls))
	layer["rg.rounds_propose"] = per(t.labels["rg/propose"])
	layer["rg.rounds_aggregate"] = per(t.labels["rg/aggregate"])
	layer["rg.rounds_congestion"] = per(t.labels["rg/congestion"])
	layer["rg.messages"] = per(t.messages)
	layer["core.self_ms"] = ms(t.coreSelf) / n
	layer["core.strongcarve_calls"] = per(int64(t.carves))
	layer["core.clusters"] = per(int64(t.clusters))
	layer["core.colors"] = per(int64(t.colors))
	layer["core.rounds_thm21_gather"] = per(t.labels["thm21/gather"])
	layer["core.rounds_thm21_bfs"] = per(t.labels["thm21/bfs"])
	layer["engine.self_ms"] = ms(t.engine) / n
	layer["engine.split_ms"] = ms(t.split) / n
	layer["engine.merge_ms"] = ms(t.merge) / n
	layer["engine.components"] = per(int64(t.comps))
}
