package graph

import (
	"math"
	"slices"
	"sync"
)

// Scratch holds the reusable per-traversal buffers (visit stamps, BFS
// queue, per-node values, distance array) that make the hot graph
// operations allocation-free in steady state. A Scratch is not safe for
// concurrent use; keep one per worker (the Engine keeps one per worker on
// a free list). Buffers only ever grow — a shrink-then-grow sequence of
// graph sizes never discards grown capacity.
//
// Per-node state is generation stamps rather than booleans, so "clearing"
// it between calls is a single counter increment instead of an O(n)
// memset. One counter numbers both node sets and traversals: a node is in
// the current set when its stamp is at least the set's generation, and
// visited by the latest traversal when its stamp equals the traversal's,
// which is larger. So a traversal restricted to a set tests a neighbour
// with one load and touches only the nodes it reaches.
type Scratch struct {
	mark []int64 // by node: set and visit generations
	gen  int64   // latest generation handed out
	set  int64   // current set: its members have mark >= set
	seen int64   // latest traversal: its nodes have mark == seen
	val  []int   // by node, where the latest call stamped it: dense id, component index, BFS distance or parent

	queue  []int
	dist   []int
	sizes  []int // cumulative BFS layer sizes
	counts []int // per-component counters
}

// NewScratch returns an empty Scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Nodes returns the number of nodes the per-node buffers cover: the
// largest graph s has served.
func (s *Scratch) Nodes() int { return len(s.mark) }

// size ensures the per-node arrays cover n nodes. Newly grown regions are
// zero, older than every generation, and the nodes of the current set and
// traversal keep their stamps.
func (s *Scratch) size(n int) {
	if len(s.mark) >= n {
		return
	}
	mark := make([]int64, n)
	copy(mark, s.mark)
	s.mark = mark
	val := make([]int, n)
	copy(val, s.val)
	s.val = val
}

// visit starts a traversal and returns its generation.
func (s *Scratch) visit() int64 {
	s.gen++
	s.seen = s.gen
	return s.seen
}

// visitAll starts a traversal of an n-node graph that is not restricted
// to a set. It ends the current set, which the traversal's stamps would
// otherwise join.
func (s *Scratch) visitAll(n int) int64 {
	s.size(n)
	s.set = math.MaxInt64
	return s.visit()
}

// BeginSet starts a new, empty node set of an n-node graph; Add puts
// nodes in it. Layers, SplitSet and Preorder traverse only the current
// set, and every other method of s replaces or ends it. Reached and Val
// keep answering for the latest traversal, except for nodes added since.
func (s *Scratch) BeginSet(n int) {
	s.size(n)
	s.gen++
	s.set = s.gen
}

// Add puts v in the current set.
func (s *Scratch) Add(v int) { s.mark[v] = s.set }

// MarkSet starts a new set of an n-node graph holding the nodes of set.
func (s *Scratch) MarkSet(n int, set []int) {
	s.BeginSet(n)
	for _, v := range set {
		s.mark[v] = s.set
	}
}

// Has reports whether v is in the current set.
func (s *Scratch) Has(v int) bool { return s.mark[v] >= s.set }

// Reached reports whether the latest traversal visited v.
func (s *Scratch) Reached(v int) bool { return s.mark[v] == s.seen }

// Val returns what the latest traversal recorded for a node it reached:
// the BFS distance after Layers, the component index after SplitSet.
func (s *Scratch) Val(v int) int { return s.val[v] }

// Layers runs a multi-source BFS from srcs inside the current set and
// returns the cumulative layer sizes: sizes[r] is the number of members
// within distance r of srcs (nil if no source is a member). Val gives the
// distance of each node reached. The result aliases the scratch and is
// valid until the next call.
func (s *Scratch) Layers(g *Graph, srcs []int) []int {
	in, seen := s.set, s.visit()
	q := s.queue[:0]
	for _, v := range srcs {
		if st := s.mark[v]; st >= in && st != seen {
			s.mark[v], s.val[v] = seen, 0
			q = append(q, v)
		}
	}
	for head := 0; head < len(q); head++ {
		u := q[head]
		d := s.val[u] + 1
		for _, w := range g.Neighbors(u) {
			if st := s.mark[w]; st >= in && st != seen {
				s.mark[w], s.val[w] = seen, d
				q = append(q, w)
			}
		}
	}
	s.queue = q[:0]
	if len(q) == 0 {
		return nil
	}
	sizes := s.sizes[:0]
	sizes = append(sizes, make([]int, s.val[q[len(q)-1]]+1)...)
	for _, v := range q {
		sizes[s.val[v]]++
	}
	for r := 1; r < len(sizes); r++ {
		sizes[r] += sizes[r-1]
	}
	s.sizes = sizes
	return sizes
}

// SplitSet appends to comps the connected components of the current set,
// whose members must all lie in the ascending node list set. Components
// are ordered by smallest node and their members ascend, the order of the
// package-level Components. The members are appended to dst, and each
// component is a capacity-capped window of it, so appending to one never
// overwrites the next. Val gives each member's component index.
func (s *Scratch) SplitSet(g *Graph, set, dst []int, comps [][]int) ([]int, [][]int) {
	in, seen := s.set, s.visit()
	counts := s.counts[:0]
	q := s.queue[:0]
	for _, v := range set {
		if st := s.mark[v]; st < in || st == seen {
			continue
		}
		ci, start := len(counts), len(q)
		s.mark[v], s.val[v] = seen, ci
		q = append(q, v)
		for head := start; head < len(q); head++ {
			for _, w := range g.Neighbors(q[head]) {
				if st := s.mark[w]; st >= in && st != seen {
					s.mark[w], s.val[w] = seen, ci
					q = append(q, w)
				}
			}
		}
		counts = append(counts, len(q)-start)
	}
	s.queue = q[:0]
	// One ascending pass places every member: counts turn into write
	// offsets, then into the components' ends.
	base := len(dst)
	dst = slices.Grow(dst, len(q))[:base+len(q)]
	off := base
	for i, c := range counts {
		counts[i] = off
		off += c
	}
	for _, v := range set {
		if s.mark[v] == seen {
			ci := s.val[v]
			dst[counts[ci]] = v
			counts[ci]++
		}
	}
	start := base
	for _, end := range counts {
		comps = append(comps, dst[start:end:end])
		start = end
	}
	s.counts = counts[:0]
	return dst, comps
}

// ComponentsOf returns the connected components of the subgraph induced
// by the ascending node list set, in SplitSet's order; the members share
// one allocation of len(set). It replaces the current set with set.
func (s *Scratch) ComponentsOf(g *Graph, set []int) [][]int {
	s.MarkSet(g.N(), set)
	_, comps := s.SplitSet(g, set, make([]int, 0, len(set)), nil)
	return comps
}

// Preorder appends to dst the nodes of the current set that root
// reaches, in the pre-order of their BFS tree rooted at root, each node's
// children in ascending id order. root must be in the set.
func (s *Scratch) Preorder(g *Graph, root int, dst []int) []int {
	// BFS tree: val holds each reached node's parent.
	in, seen := s.set, s.visit()
	q := append(s.queue[:0], root)
	s.mark[root], s.val[root] = seen, -1
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, w := range g.Neighbors(u) {
			if st := s.mark[w]; st >= in && st != seen {
				s.mark[w], s.val[w] = seen, u
				q = append(q, w)
			}
		}
	}
	// Depth-first walk on the queue's storage as a stack: a node's
	// children are its ascending neighbours whose parent it is, pushed
	// in reverse so the smallest comes off first.
	stack := append(q[:0], root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst = append(dst, v)
		nb := g.Neighbors(v)
		for i := len(nb) - 1; i >= 0; i-- {
			if w := nb[i]; s.mark[w] == seen && s.val[w] == v {
				stack = append(stack, w)
			}
		}
	}
	s.queue = stack[:0]
	return dst
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
	seen := s.visitAll(n)
	var comps [][]int
	for v := 0; v < n; v++ {
		if s.mark[v] == seen || (alive != nil && !alive[v]) {
			continue
		}
		q := s.queue[:0]
		q = append(q, v)
		s.mark[v] = seen
		for head := 0; head < len(q); head++ {
			for _, w := range g.Neighbors(q[head]) {
				if s.mark[w] != seen && (alive == nil || alive[w]) {
					s.mark[w] = seen
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
			s.val[v] = k
		}
		comps[k] = comp[:0]
	}
	for v := 0; v < g.N(); v++ {
		if s.mark[v] == s.seen { // visited by this call's BFS
			k := s.val[v]
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
	s.MarkSet(g.N(), nodes)
	in, seen := s.set, s.visit()
	q := s.queue[:0]
	q = append(q, nodes[0])
	s.mark[nodes[0]] = seen
	for head := 0; head < len(q); head++ {
		for _, w := range g.Neighbors(q[head]) {
			if st := s.mark[w]; st >= in && st != seen {
				s.mark[w] = seen
				q = append(q, w)
			}
		}
	}
	s.queue = q[:0]
	return len(q) == len(nodes)
}

// InducedSubgraph returns the subgraph induced by the distinct node set
// nodes, with new ids assigned by position in nodes, plus the new-to-original
// id mapping. The CSR rows are built directly from the host graph's rows —
// no Builder, no edge buffer, no remap map — so the only allocations are the
// three output arrays. It replaces the current set with nodes.
func (s *Scratch) InducedSubgraph(g *Graph, nodes []int) (*Graph, []int) {
	s.BeginSet(g.N())
	in := s.set
	orig := make([]int, len(nodes))
	for i, v := range nodes {
		s.mark[v] = in
		s.val[v] = i
		orig[i] = v
	}
	offsets := make([]int64, len(nodes)+1)
	for i, v := range nodes {
		d := int64(0)
		for _, w := range g.Neighbors(v) {
			if s.mark[w] == in {
				d++
			}
		}
		offsets[i+1] = offsets[i] + d
	}
	targets := make([]int, offsets[len(nodes)])
	for i, v := range nodes {
		c := offsets[i]
		for _, w := range g.Neighbors(v) {
			if s.mark[w] == in {
				targets[c] = s.val[w]
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
	gen := s.visitAll(n)
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
