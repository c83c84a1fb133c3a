package graph

import (
	"slices"
	"sync"
)

// Scratch holds the reusable per-traversal buffers (visit stamps, BFS
// queue, subgraph remap table, distance array) that make the hot graph
// operations allocation-free in steady state. A Scratch is not safe for
// concurrent use; pool one per worker (the Engine plumbs them through its
// sync.Pool). Buffers only ever grow — a shrink-then-grow sequence of graph
// sizes never discards grown capacity.
//
// Visit marks are generation stamps rather than booleans, so "clearing" the
// visited set between calls is a single counter increment instead of an
// O(n) memset.
type Scratch struct {
	mark  []int64 // mark[v] >= gen encodes per-call node state
	gen   int64
	remap []int // node -> dense id, valid only while mark[v] is current
	queue []int
	dist  []int
}

// NewScratch returns an empty Scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow ensures the stamped arrays cover n nodes and returns a fresh
// generation pair (gen, gen+1): callers use gen for "marked" and gen+1 for
// "marked and visited". Newly grown regions are zero, which never matches a
// live generation because gen starts above zero and only increases.
func (s *Scratch) grow(n int) int64 {
	if len(s.mark) < n {
		mark := make([]int64, n)
		copy(mark, s.mark)
		s.mark = mark
		remap := make([]int, n)
		copy(remap, s.remap)
		s.remap = remap
	}
	s.gen += 2
	return s.gen
}

// BFS is the scratch-owned variant of the package-level BFS: identical
// semantics, but the returned visit-order slice aliases the scratch queue
// and is only valid until the next use of s.
//
//sdlint:hotpath
func (s *Scratch) BFS(g *Graph, alive []bool, srcs []int, dist []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	queue := s.queue[:0]
	for _, v := range srcs {
		if alive != nil && !alive[v] {
			continue
		}
		if dist[v] == -1 {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] != -1 || (alive != nil && !alive[v]) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	s.queue = queue[:0]
	return queue
}

// Components returns the connected components of the alive subgraph in BFS
// visit order (components ordered by smallest node, members in discovery
// order). Only the returned component slices are allocated; all traversal
// state comes from the scratch.
func (s *Scratch) Components(g *Graph, alive []bool) [][]int {
	n := g.N()
	gen := s.grow(n)
	var comps [][]int
	for v := 0; v < n; v++ {
		if s.mark[v] == gen || (alive != nil && !alive[v]) {
			continue
		}
		q := s.queue[:0]
		q = append(q, v)
		s.mark[v] = gen
		for head := 0; head < len(q); head++ {
			for _, w := range g.Neighbors(q[head]) {
				if s.mark[w] != gen && (alive == nil || alive[w]) {
					s.mark[w] = gen
					q = append(q, w)
				}
			}
		}
		comp := make([]int, len(q))
		copy(comp, q)
		comps = append(comps, comp)
		s.queue = q[:0] // retain grown capacity for the next component
	}
	return comps
}

// sortedComponents is Components with every component's members in
// ascending order, without sorting: it stamps each member with its
// component's index, then one ascending pass over the nodes rewrites every
// component in place. Components stay ordered by their smallest node.
func (s *Scratch) sortedComponents(g *Graph, alive []bool) [][]int {
	comps := s.Components(g, alive)
	for k, comp := range comps {
		for _, v := range comp {
			s.remap[v] = k
		}
		comps[k] = comp[:0]
	}
	for v := 0; v < g.N(); v++ {
		if s.mark[v] == s.gen { // visited by this call's BFS
			k := s.remap[v]
			comps[k] = append(comps[k], v)
		}
	}
	return comps
}

// IsConnected reports whether the subgraph induced by nodes is connected
// (an empty or singleton set is connected). Zero allocations.
//
//sdlint:hotpath
func (s *Scratch) IsConnected(g *Graph, nodes []int) bool {
	if len(nodes) <= 1 {
		return true
	}
	gen := s.grow(g.N())
	for _, v := range nodes {
		s.mark[v] = gen // member, not yet visited
	}
	q := s.queue[:0]
	q = append(q, nodes[0])
	s.mark[nodes[0]] = gen + 1
	reached := 1
	for head := 0; head < len(q); head++ {
		for _, w := range g.Neighbors(q[head]) {
			if s.mark[w] == gen {
				s.mark[w] = gen + 1
				reached++
				q = append(q, w)
			}
		}
	}
	s.queue = q[:0]
	return reached == len(nodes)
}

// InducedSubgraph returns the subgraph induced by the distinct node set
// nodes, with new ids assigned by position in nodes, plus the new-to-original
// id mapping. The CSR rows are built directly from the host graph's rows —
// no Builder, no edge buffer, no remap map — so the only allocations are the
// three output arrays.
func (s *Scratch) InducedSubgraph(g *Graph, nodes []int) (*Graph, []int) {
	gen := s.grow(g.N())
	orig := make([]int, len(nodes))
	for i, v := range nodes {
		s.mark[v] = gen
		s.remap[v] = i
		orig[i] = v
	}
	offsets := make([]int64, len(nodes)+1)
	for i, v := range nodes {
		d := int64(0)
		for _, w := range g.Neighbors(v) {
			if s.mark[w] == gen {
				d++
			}
		}
		offsets[i+1] = offsets[i] + d
	}
	targets := make([]int, offsets[len(nodes)])
	for i, v := range nodes {
		c := offsets[i]
		for _, w := range g.Neighbors(v) {
			if s.mark[w] == gen {
				targets[c] = s.remap[w]
				c++
			}
		}
		// Host rows are sorted by original id; when nodes is not in
		// increasing order the remapped row needs a local re-sort to keep
		// the CSR row invariant.
		slices.Sort(targets[offsets[i]:c])
	}
	return fromCSR(offsets, targets), orig
}

// StrongDiameter is the scratch-backed variant of the package-level
// StrongDiameter: exact diameter of the induced subgraph, -1 if
// disconnected or empty.
func (s *Scratch) StrongDiameter(g *Graph, nodes []int) int {
	if len(nodes) == 0 {
		return -1
	}
	sub, _ := s.InducedSubgraph(g, nodes)
	if cap(s.dist) < sub.N() {
		s.dist = make([]int, sub.N())
	}
	dist := s.dist[:sub.N()]
	diam := 0
	for v := 0; v < sub.N(); v++ {
		order := s.BFS(sub, nil, []int{v}, dist)
		if len(order) != sub.N() {
			return -1
		}
		if d := dist[order[len(order)-1]]; d > diam {
			diam = d
		}
	}
	return diam
}

// DiameterApprox is the linear-time 2-sweep diameter approximation over
// the alive subgraph (nil alive means all nodes): for each connected
// component, one BFS finds a far node and a second BFS from it reports
// that node's eccentricity. The returned value is the maximum over
// components — a lower bound on the true diameter, which is at most
// twice it. Total work is O(n + m) regardless of how many components the
// subgraph splits into, and steady-state allocations are zero: all
// traversal state lives in the scratch.
func (s *Scratch) DiameterApprox(g *Graph, alive []bool) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	gen := s.grow(n)
	if cap(s.dist) < n {
		s.dist = make([]int, n)
	}
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = -1
	}
	return s.diameterSweep(g, alive, dist, gen)
}

// diameterSweep is DiameterApprox's allocation-free core. On entry the
// scratch is grown, dist[v] == -1 for every v, and gen is a fresh mark
// generation; each component is swept exactly once (marked nodes are
// skipped) and dist's all-minus-one invariant is restored between sweeps
// by touching only the nodes the sweep visited.
//
//sdlint:hotpath
func (s *Scratch) diameterSweep(g *Graph, alive []bool, dist []int, gen int64) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		if s.mark[v] == gen || (alive != nil && !alive[v]) {
			continue
		}
		order := s.bfsSweep(g, alive, v, dist)
		for _, u := range order {
			s.mark[u] = gen
			dist[u] = -1
		}
		far := order[len(order)-1]
		order = s.bfsSweep(g, alive, far, dist)
		last := order[len(order)-1]
		if dist[last] > diam {
			diam = dist[last]
		}
		for _, u := range order {
			dist[u] = -1
		}
	}
	return diam
}

// bfsSweep is the single-source variant of Scratch.BFS backing the
// 2-sweep: identical traversal, but it skips BFS's O(n) distance reset —
// the caller guarantees dist[v] == -1 for every reachable v and restores
// that invariant afterward — so a sweep costs only its own component.
// The returned visit order aliases the scratch queue and is only valid
// until the next use of s.
//
//sdlint:hotpath
func (s *Scratch) bfsSweep(g *Graph, alive []bool, src int, dist []int) []int {
	queue := s.queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] != -1 || (alive != nil && !alive[v]) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	s.queue = queue[:0]
	return queue
}

// scratchPool backs the package-level convenience functions (IsConnected,
// InducedSubgraph, StrongDiameter), so even scratch-less callers reuse
// traversal state across calls.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }
