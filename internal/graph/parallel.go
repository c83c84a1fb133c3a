package graph

// Frontier-parallel traversal over the CSR representation.
//
// ParallelScratch is the multi-worker sibling of Scratch: a level-
// synchronous BFS whose frontier is scanned by several goroutines at once,
// with per-worker discovery buffers, an atomic claim protocol on a flat
// state array, and a read-only settled bitset published between levels.
// The defining property, which the differential tests pin, is that every
// operation reproduces its sequential oracle EXACTLY — not just equal
// distance arrays, but the identical visit order:
//
//   - Within one BFS level, sequential traversal discovers node v through
//     its minimum-rank frontier neighbor (earlier frontier nodes scan
//     first), and within one parent the CSR row ascends. So the sequential
//     order of level d+1 is exactly "sort by (min frontier rank of a
//     neighbor, node id)".
//   - The parallel scan computes that minimum rank with a CAS-minimum on
//     state[v] while exactly one worker (the one whose CAS moved the state
//     off "unvisited") records v in its buffer; the coordinator then sorts
//     the level by the packed key rank<<32|v and appends it to the order.
//
// Because the visit order is bit-identical, everything layered on top —
// component member order, induced-subgraph numbering, ball carving, the
// engine's golden fixtures — is unchanged when the parallel path is
// switched on. DESIGN.md ("Parallel traversal") documents the contract.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultParallelThreshold is the node count below which callers should
// prefer the sequential Scratch path: under it, the per-call O(n) state
// reset and the level-barrier overhead cost more than the parallelism
// recovers. Engine-level gating (WithParallelBFSThreshold) defaults to
// this value.
const DefaultParallelThreshold = 32768

// parallelChunk is the number of frontier slots a worker claims per
// atomic fetch-add. Large enough that the shared cursor is not contended
// (one atomic op per ~512 nodes scanned), small enough that an uneven
// degree distribution still load-balances: a frontier of a million nodes
// yields ~2000 steals.
const parallelChunk = 512

// parallelFanoutMin is the minimum frontier size worth fanning out to
// worker goroutines; smaller levels are scanned inline by the caller.
const parallelFanoutMin = 2 * parallelChunk

// Per-node claim states. Non-negative values are transient within one
// level scan: the minimum frontier rank that has reached the node so far.
const (
	psUnvisited int64 = -1 // never reached in this traversal
	psSettled   int64 = -2 // order position assigned, bitset mark published
	psDone      int64 = -3 // settled in a finished component (DiameterApprox)
)

// ParallelConfig gates frontier-parallel traversal: Workers is the fan-out
// width and Threshold the minimum node count for the parallel path to
// engage (0 means always). The zero value disables parallelism.
//
// The config travels by context (WithParallelConfig) because it must NOT
// be part of any algorithm's parameter identity: parallel and sequential
// runs produce bit-identical results, so caches keyed on Params treat
// them as the same computation.
type ParallelConfig struct {
	// Workers is the number of goroutines scanning a frontier; values
	// below 2 disable the parallel path.
	Workers int
	// Threshold is the minimum number of nodes before parallel traversal
	// engages; below it the zero-alloc sequential path wins.
	Threshold int
}

// Enabled reports whether parallel traversal should engage for an n-node
// workload under this config.
func (c ParallelConfig) Enabled(n int) bool {
	return c.Workers > 1 && n >= c.Threshold
}

// parallelCtxKey carries a ParallelConfig through a context.
type parallelCtxKey struct{}

// WithParallelConfig returns a context carrying cfg; algorithm layers that
// support frontier-parallel traversal (core.StrongCarveContext's component
// splits and ball BFS) read it with ParallelConfigFrom.
func WithParallelConfig(ctx context.Context, cfg ParallelConfig) context.Context {
	return context.WithValue(ctx, parallelCtxKey{}, cfg)
}

// ParallelConfigFrom extracts the ParallelConfig from ctx, reporting
// whether one was attached.
func ParallelConfigFrom(ctx context.Context) (ParallelConfig, bool) {
	cfg, ok := ctx.Value(parallelCtxKey{}).(ParallelConfig)
	return cfg, ok
}

// ParallelScratch holds the reusable state of frontier-parallel BFS: the
// flat claim array, the settled bitset, the order/key buffers, and one
// discovery buffer per worker. Like Scratch it is not safe for concurrent
// use (one traversal at a time) and its buffers only grow; unlike Scratch
// its per-call reset is O(n), which is why callers gate it behind a size
// threshold.
type ParallelScratch struct {
	state []int64  // per-node claim state; CAS-contended during a level scan
	marks []uint32 // settled bitset, published between levels (plain reads)
	order []int    // visit order so far; the live frontier is order[levelLo:levelHi]
	keys  []uint64 // rank<<32|v sort keys for the level being collected
	bufs  [][]int  // per-worker discovery buffers
	dist  []int    // internal distance array for DiameterApprox

	// Scan call context, published to workers by goroutine creation.
	g                *Graph
	alive            []bool
	levelLo, levelHi int
	cursor           atomic.Int64
	wg               sync.WaitGroup
}

// NewParallelScratch returns an empty ParallelScratch; buffers are sized
// on first use.
func NewParallelScratch() *ParallelScratch { return &ParallelScratch{} }

// begin resets the claim array and bitset for an n-node traversal.
func (ps *ParallelScratch) begin(n int) {
	if cap(ps.state) < n {
		ps.state = make([]int64, n)
	}
	ps.state = ps.state[:n]
	for i := range ps.state {
		ps.state[i] = psUnvisited
	}
	nw := (n + 31) / 32
	if cap(ps.marks) < nw {
		ps.marks = make([]uint32, nw)
	}
	ps.marks = ps.marks[:nw]
	clear(ps.marks)
	ps.order = ps.order[:0]
}

// ensureWorkers sizes the per-worker discovery buffers.
func (ps *ParallelScratch) ensureWorkers(workers int) {
	for len(ps.bufs) < workers {
		ps.bufs = append(ps.bufs, nil)
	}
}

// settle marks v visited: order position assigned, bitset bit published.
func (ps *ParallelScratch) settle(v int) {
	ps.state[v] = psSettled
	ps.marks[uint(v)>>5] |= 1 << (uint(v) & 31)
}

// BFS is the frontier-parallel variant of Scratch.BFS: identical
// semantics and an identical visit order (see the package comment for why
// order equality holds), with the frontier of each level scanned by up to
// workers goroutines. dist must have length g.N() and is fully reset; the
// returned order aliases the scratch and is only valid until the next use
// of ps.
func (ps *ParallelScratch) BFS(g *Graph, alive []bool, srcs []int, dist []int, workers int) []int {
	ps.begin(g.N())
	for i := range dist {
		dist[i] = -1
	}
	order := ps.order[:0]
	for _, v := range srcs {
		if alive != nil && !alive[v] {
			continue
		}
		if dist[v] == -1 {
			dist[v] = 0
			ps.settle(v)
			order = append(order, v)
		}
	}
	ps.order = order
	ps.levelLo, ps.levelHi = 0, len(order)
	ps.run(g, alive, dist, workers)
	return ps.order
}

// Components is the frontier-parallel variant of Scratch.Components:
// components ordered by smallest node, members in the sequential BFS
// discovery order. Only the returned component slices are allocated.
func (ps *ParallelScratch) Components(g *Graph, alive []bool, workers int) [][]int {
	n := g.N()
	ps.begin(n)
	var comps [][]int
	for v := 0; v < n; v++ {
		if ps.state[v] != psUnvisited || (alive != nil && !alive[v]) {
			continue
		}
		order := ps.bfsFrom(g, alive, v, nil, workers)
		comp := make([]int, len(order))
		copy(comp, order)
		comps = append(comps, comp)
	}
	return comps
}

// DiameterApprox is the frontier-parallel variant of
// Scratch.DiameterApprox: the same 2-sweep lower bound per component with
// the same far-node choice (visit orders are identical, so the sweep
// picks the same endpoints and returns the same value).
func (ps *ParallelScratch) DiameterApprox(g *Graph, alive []bool, workers int) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	ps.begin(n)
	if cap(ps.dist) < n {
		ps.dist = make([]int, n)
	}
	dist := ps.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	diam := 0
	for v := 0; v < n; v++ {
		if ps.state[v] != psUnvisited || (alive != nil && !alive[v]) {
			continue
		}
		order := ps.bfsFrom(g, alive, v, dist, workers)
		far := order[len(order)-1]
		// Reopen the component for the second sweep: clear claim states,
		// bitset bits, and distances of exactly the visited nodes.
		for _, u := range order {
			ps.state[u] = psUnvisited
			ps.marks[uint(u)>>5] &^= 1 << (uint(u) & 31)
			dist[u] = -1
		}
		order = ps.bfsFrom(g, alive, far, dist, workers)
		if d := dist[order[len(order)-1]]; d > diam {
			diam = d
		}
		// Close the component for good; the outer scan skips psDone.
		for _, u := range order {
			ps.state[u] = psDone
			dist[u] = -1
		}
	}
	return diam
}

// NeighborhoodSizes is the frontier-parallel variant of the package-level
// NeighborhoodSizes: cumulative ball sizes per BFS distance from srcs in
// the alive subgraph.
func (ps *ParallelScratch) NeighborhoodSizes(g *Graph, alive []bool, srcs []int, dist []int, workers int) []int {
	order := ps.BFS(g, alive, srcs, dist, workers)
	if len(order) == 0 {
		return nil
	}
	maxD := dist[order[len(order)-1]]
	sizes := make([]int, maxD+1)
	for _, v := range order {
		sizes[dist[v]]++
	}
	for d := 1; d <= maxD; d++ {
		sizes[d] += sizes[d-1]
	}
	return sizes
}

// bfsFrom runs one single-source traversal on top of already-initialized
// claim state (it does NOT reset other nodes — Components and
// DiameterApprox rely on settled state persisting across components). The
// returned order aliases the scratch.
func (ps *ParallelScratch) bfsFrom(g *Graph, alive []bool, src int, dist []int, workers int) []int {
	ps.order = ps.order[:0]
	ps.settle(src)
	ps.order = append(ps.order, src)
	if dist != nil {
		dist[src] = 0
	}
	ps.levelLo, ps.levelHi = 0, 1
	ps.run(g, alive, dist, workers)
	return ps.order
}

// run drives the level loop: scan the current frontier, then sort and
// publish the discovered level, until the frontier empties.
func (ps *ParallelScratch) run(g *Graph, alive []bool, dist []int, workers int) {
	for d := 1; ps.levelHi > ps.levelLo; d++ {
		ps.scanFrontier(g, alive, workers)
		ps.collectLevel(d, dist)
	}
}

// scanFrontier dispatches the claim scan of order[levelLo:levelHi] across
// workers goroutines (inline when the level is too small to be worth the
// fan-out). Worker w appends its claimed discoveries to bufs[w].
func (ps *ParallelScratch) scanFrontier(g *Graph, alive []bool, workers int) {
	if workers < 1 {
		workers = 1
	}
	ps.ensureWorkers(workers)
	ps.g, ps.alive = g, alive
	ps.cursor.Store(int64(ps.levelLo))
	if workers == 1 || ps.levelHi-ps.levelLo < parallelFanoutMin {
		ps.scanLevel(0)
		return
	}
	for w := 1; w < workers; w++ {
		ps.wg.Add(1)
		go ps.scanWorker(w)
	}
	ps.scanLevel(0)
	ps.wg.Wait()
}

// scanWorker is the goroutine body of one fan-out worker.
func (ps *ParallelScratch) scanWorker(w int) {
	defer ps.wg.Done()
	ps.scanLevel(w)
}

// scanLevel claims parallelChunk-sized slices of the frontier via the
// shared cursor and scans their CSR rows. For each eligible neighbor it
// runs the CAS-minimum protocol on state[v]: the worker whose CAS moves
// the state off psUnvisited owns the discovery (records v in its buffer);
// later and concurrent scanners only lower the pending rank. Settled
// nodes short-circuit on the bitset with a plain load — the bits were
// published before the level started.
//
//sdlint:hotpath
func (ps *ParallelScratch) scanLevel(w int) {
	buf := ps.bufs[w][:0]
	g, alive := ps.g, ps.alive
	marks, state := ps.marks, ps.state
	frontier := ps.order[:ps.levelHi]
	end := int64(ps.levelHi)
	for {
		hi := ps.cursor.Add(parallelChunk)
		lo := hi - parallelChunk
		if lo >= end {
			break
		}
		if hi > end {
			hi = end
		}
		for r := lo; r < hi; r++ {
			u := frontier[r]
			for _, v := range g.Neighbors(u) {
				if marks[uint(v)>>5]&(1<<(uint(v)&31)) != 0 {
					continue
				}
				if alive != nil && !alive[v] {
					continue
				}
				s := atomic.LoadInt64(&state[v])
				for s == psUnvisited || s > r {
					if atomic.CompareAndSwapInt64(&state[v], s, r) {
						if s == psUnvisited {
							buf = append(buf, v)
						}
						break
					}
					s = atomic.LoadInt64(&state[v])
				}
			}
		}
	}
	ps.bufs[w] = buf
}

// collectLevel merges the per-worker discovery buffers into the next
// frontier in the sequential visit order: sort by rank<<32|v (minimum
// discovering frontier rank, then node id — both fit 32 bits since node
// counts are capped at MaxInt32), then assign distances, settle states,
// and publish bitset bits. Runs on the coordinator between level scans,
// so the plain stores here happen-before the next level's plain loads.
func (ps *ParallelScratch) collectLevel(d int, dist []int) {
	keys := ps.keys[:0]
	for w := range ps.bufs {
		for _, v := range ps.bufs[w] {
			keys = append(keys, uint64(ps.state[v])<<32|uint64(uint32(v)))
		}
		ps.bufs[w] = ps.bufs[w][:0]
	}
	slices.Sort(keys)
	ps.keys = keys
	order := ps.order
	ps.levelLo = len(order)
	for _, k := range keys {
		v := int(uint32(k))
		order = append(order, v)
		ps.settle(v)
		if dist != nil {
			dist[v] = d
		}
	}
	ps.order = order
	ps.levelHi = len(order)
}

// parallelPool backs the package-level convenience wrappers, mirroring
// scratchPool for the sequential paths.
var parallelPool = sync.Pool{New: func() any { return NewParallelScratch() }}

// ParallelBFS is the pooled frontier-parallel BFS: semantics of the
// package-level BFS (and an identical visit order), scanned by up to
// workers goroutines. Unlike ParallelScratch.BFS the returned order is a
// fresh slice.
func ParallelBFS(g *Graph, alive []bool, srcs []int, dist []int, workers int) []int {
	ps := parallelPool.Get().(*ParallelScratch)
	order := ps.BFS(g, alive, srcs, dist, workers)
	out := make([]int, len(order))
	copy(out, order)
	parallelPool.Put(ps)
	return out
}

// ParallelComponents is the pooled frontier-parallel variant of the
// package-level Components: each component's members sorted, components
// ordered by smallest node.
func ParallelComponents(g *Graph, alive []bool, workers int) [][]int {
	ps := parallelPool.Get().(*ParallelScratch)
	comps := ps.Components(g, alive, workers)
	parallelPool.Put(ps)
	for _, comp := range comps {
		sortInts(comp)
	}
	return comps
}

// ParallelDiameterApprox is the pooled frontier-parallel 2-sweep diameter
// approximation over the alive subgraph, equal by construction to
// Scratch.DiameterApprox on the same input.
func ParallelDiameterApprox(g *Graph, alive []bool, workers int) int {
	ps := parallelPool.Get().(*ParallelScratch)
	diam := ps.DiameterApprox(g, alive, workers)
	parallelPool.Put(ps)
	return diam
}

// ParallelNeighborhoodSizes is the pooled frontier-parallel variant of
// NeighborhoodSizes.
func ParallelNeighborhoodSizes(g *Graph, alive []bool, srcs []int, dist []int, workers int) []int {
	ps := parallelPool.Get().(*ParallelScratch)
	sizes := ps.NeighborhoodSizes(g, alive, srcs, dist, workers)
	parallelPool.Put(ps)
	return sizes
}

// ForChunks partitions [0, n) into parallelChunk-sized ranges and runs
// fn(worker, lo, hi) over them on up to workers goroutines, claiming
// ranges from a shared cursor (work stealing, no pre-partitioning). Every
// index lands in exactly one call; fn must be safe for concurrent
// invocation on disjoint ranges. The rg carver uses this for its
// per-phase seed and proposal scans.
func ForChunks(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || n < parallelFanoutMin {
		fn(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	body := func(w int) {
		for {
			hi := cursor.Add(parallelChunk)
			lo := hi - parallelChunk
			if lo >= int64(n) {
				return
			}
			if hi > int64(n) {
				hi = int64(n)
			}
			fn(w, int(lo), int(hi))
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	body(0)
	wg.Wait()
}
