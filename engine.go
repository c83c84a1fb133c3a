package strongdecomp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/core"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// Engine executes decompositions at scale: it owns a worker pool and a
// free list of per-worker scratch buffers, decomposes the connected components
// of a graph concurrently, and batches runs over many graphs. All methods
// honor context cancellation and deadlines (returning errors matching
// ErrCanceled) and are safe for concurrent use from multiple goroutines —
// one Engine is meant to be shared by a whole serving process.
//
// Per-component parallelism is sound for network decomposition: distinct
// connected components are non-adjacent, so their decompositions are
// independent and their color sets may overlap. In the distributed model
// the components literally run simultaneously, which is why the attached
// Meter folds component costs with MergeParallel (max) rather than
// sequentially (sum). Components are the engine's only unit of
// parallelism: inside one component every traversal is sequential.
type Engine struct {
	algo    string
	workers int

	scratch chan *core.Scratch // free list, at most workers entries

	runs        atomic.Int64
	batches     atomic.Int64
	merges      atomic.Int64
	inFlight    atomic.Int64
	maxParallel atomic.Int64
}

// A unit task's working state is a core.Scratch: its graph.Scratch
// stamps serve the component split and the per-component InducedSubgraph
// remaps, and the rest holds the Theorem 2.1/2.3 lists. Its buffers only
// grow, so a shrink-then-grow sequence of graph sizes never discards
// grown capacity.
//
// The engine keeps them on a free list of at most workers entries, not in
// a sync.Pool, so it retains a bounded number and a task's reuse does not
// depend on when the collector last ran. A task that finds the list empty
// (more concurrent Run calls than workers) builds its own, and the list
// keeps it only if there is room.

// maxRetainedNodes caps the graphs whose scratch goes back on the free
// list. A kept scratch holds 50–70 B per node of the largest graph it
// served, for the life of the engine. The cap sits just above the largest
// graph the benchmark runs (40,000 nodes), so at most ~4.5 MB stays
// pinned per worker; a scratch that served anything larger is left to the
// garbage collector.
const maxRetainedNodes = 1 << 16

// getScratch takes a scratch off the free list, or builds one.
func (e *Engine) getScratch() *core.Scratch {
	select {
	case s := <-e.scratch:
		return s
	default:
		return core.NewScratch()
	}
}

// putScratch returns s to the free list if it has room and s is not
// oversized.
func (e *Engine) putScratch(s *core.Scratch) {
	if s.Nodes() > maxRetainedNodes {
		return
	}
	select {
	case e.scratch <- s:
	default:
	}
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithWorkers sets the worker-pool size (default runtime.GOMAXPROCS(0)).
func WithWorkers(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// WithEngineAlgorithm selects the registered construction the engine runs
// (default the paper's "chang-ghaffari"). The name is resolved at run time,
// so constructions registered after NewEngine are reachable too.
func WithEngineAlgorithm(name string) EngineOption {
	return func(e *Engine) { e.algo = name }
}

// NewEngine returns an engine running the given construction over a worker
// pool.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{
		algo:    DefaultAlgorithm,
		workers: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	e.scratch = make(chan *core.Scratch, e.workers)
	return e
}

// Algorithm returns the registry name of the construction the engine runs.
func (e *Engine) Algorithm() string { return e.algo }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// EngineStats is a point-in-time snapshot of the engine's execution
// counters — the observability surface consumed by the serving layer's
// /metrics endpoint, so external code never reaches into engine internals.
type EngineStats struct {
	// Algorithm is the registry name of the construction the engine runs.
	Algorithm string
	// Workers is the configured worker-pool size.
	Workers int
	// Runs counts construction invocations (per-component runs, whole-graph
	// runs, and carvings) the engine has executed.
	Runs int64
	// Batches counts DecomposeBatch calls.
	Batches int64
	// ComponentMerges counts the cache-unfriendly merge passes: runs whose
	// host graph split into multiple components, requiring per-component
	// results to be stitched back together.
	ComponentMerges int64
	// InFlight is the number of unit tasks executing at snapshot time.
	InFlight int64
	// MaxParallel is the highest number of unit tasks observed in flight
	// simultaneously over the engine's lifetime.
	MaxParallel int64
}

// Stats returns a snapshot of the engine's execution counters. It is safe
// to call concurrently with running work; counters are read atomically
// (individually, not as one consistent cut).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Algorithm:       e.algo,
		Workers:         e.workers,
		Runs:            e.runs.Load(),
		Batches:         e.batches.Load(),
		ComponentMerges: e.merges.Load(),
		InFlight:        e.inFlight.Load(),
		MaxParallel:     e.maxParallel.Load(),
	}
}

// Counters flattens the snapshot into the name → value form expvar-style
// metrics endpoints publish.
func (s EngineStats) Counters() map[string]int64 {
	return map[string]int64{
		"workers":          int64(s.Workers),
		"runs":             s.Runs,
		"batches":          s.Batches,
		"component_merges": s.ComponentMerges,
		"in_flight":        s.InFlight,
		"max_parallel":     s.MaxParallel,
	}
}

// stageClock records the engine's phase boundaries (component split,
// carving rounds, merge) for Outcome.Stages. It exists only when the
// run's context carries an observability collector: newStageClock
// returns nil otherwise and every method is nil-safe, so the cost of an
// un-instrumented run is a single context lookup — no clock reads, no
// allocation.
type stageClock struct {
	last   time.Time
	stages []registry.StageTiming
}

// newStageClock starts a clock iff ctx is instrumented (obs.Enabled).
func newStageClock(ctx context.Context) *stageClock {
	if !obs.Enabled(ctx) {
		return nil
	}
	return &stageClock{last: time.Now()}
}

// mark closes the current phase under name and opens the next one.
func (c *stageClock) mark(name string) {
	if c == nil {
		return
	}
	now := time.Now()
	c.stages = append(c.stages, registry.StageTiming{Name: name, Elapsed: now.Sub(c.last)})
	c.last = now
}

// take returns the recorded phases (nil for a nil clock).
func (c *stageClock) take() []registry.StageTiming {
	if c == nil {
		return nil
	}
	return c.stages
}

// Run executes one canonical Params on the engine: the v2 entry point.
// The Params is normalized and validated against g before any
// construction runs (ValidateFor; an empty Algorithm means the engine's
// configured construction), multi-component graphs run their
// components concurrently on the worker pool, and metering is opt-in via
// p.Meter with the total reported on Outcome.Rounds. DecomposeBatch is a
// thin shim over the same internals.
func (e *Engine) Run(ctx context.Context, g *Graph, p Params) (*Outcome, error) {
	if p.Algorithm == "" {
		p.Algorithm = e.algo
	}
	p = p.Normalized()
	if err := p.ValidateFor(g.N()); err != nil {
		return nil, err
	}
	var meter *rounds.Meter
	if p.Meter {
		meter = rounds.NewMeter()
	}
	out := &Outcome{Params: p}
	// The stage clock exists only on instrumented contexts (see
	// newStageClock), so Outcome.Stages costs nothing when nobody asked.
	sc := newStageClock(ctx)
	switch p.Kind {
	case KindCarve:
		c, err := e.carve(ctx, g, p, meter, sc)
		if err != nil {
			return nil, err
		}
		out.Carving = c
	case KindDecompose:
		d, err := e.decomposeGraph(ctx, g, p, meter, true, sc)
		if err != nil {
			return nil, err
		}
		out.Decomposition = d
	}
	if meter != nil {
		out.Rounds = meter.Rounds()
	}
	out.Stages = sc.take()
	return out, nil
}

// carve is the carving core: like decomposeGraph, a multi-component graph
// (with no Nodes restriction) is carved per component concurrently and
// merged — each component removes at most an eps fraction of its own
// nodes, so the merged carving meets the bound too. dst (which may be
// nil) receives the parallel (max) fold of the per-component costs; sc
// (which may be nil) receives the phase boundaries.
func (e *Engine) carve(ctx context.Context, g *Graph, p Params, dst *rounds.Meter, sc *stageClock) (*Carving, error) {
	d, err := Lookup(p.Algorithm)
	if err != nil {
		return nil, err
	}
	var comps [][]int
	if p.Nodes == nil {
		comps = e.components(g)
	}
	sc.mark("split")
	if len(comps) <= 1 {
		e.runs.Add(1)
		// Single component (or explicit node subset): nothing to fan out,
		// so the construction runs on the calling goroutine. Without a
		// node subset, g is the one component the split just found.
		var connected *Graph
		if p.Nodes == nil {
			connected = g
		}
		ws := e.getScratch()
		defer e.putScratch(ws)
		ctx = core.WithScratch(ctx, ws, connected)
		c, err := d.Carve(ctx, g, p.Eps, &RunOptions{Seed: p.Seed, Meter: dst, Nodes: p.Nodes})
		sc.mark("carve-rounds")
		return c, err
	}
	e.merges.Add(1)

	pieces := make([]cluster.Piece, len(comps))
	meters := make([]*rounds.Meter, len(comps))
	err = e.runPool(ctx, len(comps), func(ctx context.Context, i int) error {
		e.runs.Add(1)
		ws := e.getScratch()
		defer e.putScratch(ws)
		sub, nodeOf := ws.InducedSubgraph(g, comps[i])
		ctx = core.WithScratch(ctx, ws, sub)
		ro := &RunOptions{Seed: p.Seed + int64(i), Meter: rounds.NewMeter()}
		c, err := d.Carve(ctx, sub, p.Eps, ro)
		if err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
		pieces[i] = cluster.Piece{C: c, NodeOf: nodeOf}
		meters[i] = ro.Meter
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc.mark("carve-rounds")
	mergeParallelInto(dst, meters)
	c, err := cluster.MergeCarvings(g.N(), pieces)
	sc.mark("merge")
	return c, err
}

// DecomposeBatch decomposes every graph of the batch on the worker pool and
// returns the results in input order. Graph i runs with seed opts.Seed + i.
// The first failure (including cancellation) cancels the remaining work.
func (e *Engine) DecomposeBatch(ctx context.Context, gs []*Graph, opts *RunOptions) ([]*Decomposition, error) {
	e.batches.Add(1)
	o := opts.Normalized()
	out := make([]*Decomposition, len(gs))
	meters := make([]*rounds.Meter, len(gs))
	err := e.runPool(ctx, len(gs), func(ctx context.Context, i int) error {
		p := Params{Algorithm: e.algo, Kind: KindDecompose, Seed: o.Seed + int64(i)}
		m := rounds.NewMeter()
		// Components of one batch item run sequentially: batch-level
		// parallelism already saturates the pool.
		d, err := e.decomposeGraph(ctx, gs[i], p, m, false, nil)
		if err != nil {
			return fmt.Errorf("graph %d: %w", i, err)
		}
		out[i] = d
		meters[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	mergeParallelInto(o.Meter, meters)
	return out, nil
}

// mergeParallelInto folds the per-task meters as one parallel phase (max
// across tasks) and then adds that phase sequentially into dst, so a meter
// reused across runs keeps accumulating instead of being maxed against its
// own history.
func mergeParallelInto(dst *rounds.Meter, meters []*rounds.Meter) {
	if dst == nil {
		return
	}
	phase := rounds.NewMeter()
	for _, m := range meters {
		phase.MergeParallel(m)
	}
	dst.Merge(phase)
}

// decomposeGraph is the decomposition core: it splits g into connected
// components and runs them in parallel when parallel is set. dst (which
// may be nil) receives the parallel (max) fold of the per-component
// costs; sc (which may be nil) receives the phase boundaries.
func (e *Engine) decomposeGraph(ctx context.Context, g *Graph, p Params, dst *rounds.Meter, parallel bool, sc *stageClock) (*Decomposition, error) {
	d, err := Lookup(p.Algorithm)
	if err != nil {
		return nil, err
	}
	comps := e.components(g)
	sc.mark("split")
	if len(comps) <= 1 {
		e.runs.Add(1)
		// g is the one component the split just found.
		ws := e.getScratch()
		defer e.putScratch(ws)
		ctx = core.WithScratch(ctx, ws, g)
		dec, err := d.Decompose(ctx, g, &RunOptions{Seed: p.Seed, Meter: dst})
		sc.mark("carve-rounds")
		return dec, err
	}
	e.merges.Add(1)

	pieces := make([]cluster.Piece, len(comps))
	meters := make([]*rounds.Meter, len(comps))
	runOne := func(ctx context.Context, i int) error {
		e.runs.Add(1)
		ws := e.getScratch()
		defer e.putScratch(ws)
		sub, nodeOf := ws.InducedSubgraph(g, comps[i])
		ctx = core.WithScratch(ctx, ws, sub)
		ro := &RunOptions{Seed: p.Seed + int64(i), Meter: rounds.NewMeter()}
		dec, err := d.Decompose(ctx, sub, ro)
		if err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
		pieces[i] = cluster.Piece{D: dec, NodeOf: nodeOf}
		meters[i] = ro.Meter
		return nil
	}
	if parallel {
		err = e.runPool(ctx, len(comps), runOne)
	} else {
		for i := 0; err == nil && i < len(comps); i++ {
			if err = registry.CtxErr(ctx); err == nil {
				err = runOne(ctx, i)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	sc.mark("carve-rounds")
	mergeParallelInto(dst, meters)
	dec, err := cluster.MergeDecompositions(g.N(), pieces)
	sc.mark("merge")
	return dec, err
}

// runPool executes fn(ctx, 0..n-1) on the engine's worker pool. The first
// error cancels the remaining tasks and is returned; a canceled parent
// context yields an error matching ErrCanceled.
func (e *Engine) runPool(parent context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return registry.CtxErr(parent)
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	workers := e.workers
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cur := e.inFlight.Add(1)
				for {
					m := e.maxParallel.Load()
					if cur <= m || e.maxParallel.CompareAndSwap(m, cur) {
						break
					}
				}
				err := fn(ctx, i)
				e.inFlight.Add(-1)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return registry.CtxErr(parent)
}

// components returns the connected components of g (members in BFS
// discovery order) through a scratch from the engine's free list; only the
// component slices are allocated once the list holds a scratch grown to
// g's size. A connected g yields one component with nil members, which
// the engine never reads, so its split copies no node list.
func (e *Engine) components(g *Graph) [][]int {
	s := e.getScratch()
	defer e.putScratch(s)
	return s.Components(g, nil)
}
