package graph

import (
	"math"
	"slices"
	"sync"
)

// Scratch holds the reusable per-traversal buffers (visit stamps, BFS
// queue, per-node values) that make the hot graph
// operations allocation-free in steady state. A Scratch is not safe for
// concurrent use; keep one per worker (the Engine keeps one per worker on
// a free list). Buffers only ever grow — a shrink-then-grow sequence of
// graph sizes never discards grown capacity.
//
// Per-node state is generation stamps rather than booleans, so "clearing"
// it between calls is a single counter increment instead of an O(n)
// memset. One counter numbers both node sets and traversals: a node is in
// the current set when its stamp is at least the set's generation, and
// visited by the latest traversal when its stamp is at least the
// traversal's, which is larger. So a traversal restricted to a set tests a
// neighbour with one load and touches only the nodes it reaches, and
// Remove takes a node out of the set with one store. Ball stamps each node
// with the traversal's generation plus the node's distance, so one store
// records both, and then moves the counter past the largest stamp.
//
// Every distance or parent BFS in the module runs through two methods:
// Ball, the distance traversal (Layers adds its cumulative layer sizes),
// and Tree, the parent traversal (Preorder walks its tree).
type Scratch struct {
	mark []int64 // by node: set and visit generations
	gen  int64   // latest generation handed out
	set  int64   // current set: its members have mark >= set
	seen int64   // latest traversal: its nodes have mark >= seen
	val  []int   // by node, where the latest call stamped it: dense id, component index or BFS parent

	queue  []int // BFS queue; after Ball, Layers or Tree, their visit order
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
// nodes in it. Ball, Layers, Tree, SplitSet and Preorder traverse only the
// current set, and every other method of s replaces or ends it. Reached,
// Dist and Val keep answering for the latest traversal, except for nodes
// added or removed since.
func (s *Scratch) BeginSet(n int) {
	s.size(n)
	s.gen++
	s.set = s.gen
}

// Add puts v in the current set.
func (s *Scratch) Add(v int) { s.mark[v] = s.set }

// Remove takes v out of the current set.
func (s *Scratch) Remove(v int) { s.mark[v] = 0 }

// MarkSet starts a new set of an n-node graph holding the nodes of set.
func (s *Scratch) MarkSet(n int, set []int) {
	s.BeginSet(n)
	for _, v := range set {
		s.mark[v] = s.set
	}
}

// MarkAll starts a new set holding every node of an n-node graph.
func (s *Scratch) MarkAll(n int) {
	s.BeginSet(n)
	for v := range n {
		s.mark[v] = s.set
	}
}

// Has reports whether v is in the current set.
func (s *Scratch) Has(v int) bool { return s.mark[v] >= s.set }

// Reached reports whether the latest traversal visited v.
func (s *Scratch) Reached(v int) bool { return s.mark[v] >= s.seen }

// Dist returns the distance from the sources of a node the latest Ball or
// Layers call reached.
func (s *Scratch) Dist(v int) int { return int(s.mark[v] - s.seen) }

// Val returns what the latest traversal recorded for a node it reached:
// the BFS parent after Tree, the component index after SplitSet.
func (s *Scratch) Val(v int) int { return s.val[v] }

// Ball runs a multi-source BFS from srcs inside the current set, at most
// depth hops deep (unbounded when depth < 0), and returns the nodes it
// reaches in visit order, so by nondecreasing distance. Dist gives each
// one's distance. Sources outside the set are skipped. The order aliases
// the scratch and is valid until the next call.
//
//sdlint:hotpath
func (s *Scratch) Ball(g *Graph, srcs []int, depth int) []int {
	if depth < 0 {
		depth = math.MaxInt
	}
	in, seen := s.set, s.visit()
	mark, q := s.mark, s.queue[:0]
	for _, v := range srcs {
		if st := mark[v]; st >= in && st < seen {
			mark[v] = seen
			q = append(q, v)
		}
	}
	// Layer by layer: q[head:end] holds the nodes at distance d-1.
	d := 1
	for head := 0; head < len(q) && d <= depth; d++ {
		for end := len(q); head < end; head++ {
			for _, w := range g.Neighbors(q[head]) {
				if st := mark[w]; st >= in && st < seen {
					mark[w] = seen + int64(d)
					q = append(q, w)
				}
			}
		}
	}
	s.gen = seen + int64(d) // past every distance stamp
	s.queue = q
	return q
}

// Order returns the visit order of the latest Ball, Layers or Tree call,
// valid until the next call of any other method.
func (s *Scratch) Order() []int { return s.queue }

// Layers runs Ball from srcs without a depth cap and returns the
// cumulative layer sizes: sizes[r] is the number of members within
// distance r of srcs (nil if no source is a member). Dist gives the
// distance of each node reached and Order their visit order. The result
// aliases the scratch and is valid until the next call.
func (s *Scratch) Layers(g *Graph, srcs []int) []int {
	order := s.Ball(g, srcs, -1)
	if len(order) == 0 {
		return nil
	}
	sizes := s.sizes[:0]
	sizes = append(sizes, make([]int, s.Dist(order[len(order)-1])+1)...)
	for _, v := range order {
		sizes[s.Dist(v)]++
	}
	for r := 1; r < len(sizes); r++ {
		sizes[r] += sizes[r-1]
	}
	s.sizes = sizes
	return sizes
}

// Tree runs a BFS from root inside the current set and returns the nodes
// it reaches in visit order. Val gives each one's parent in the BFS tree:
// the first node in visit order adjacent to it, and -1 for root. root
// must be in the set. The order aliases the scratch and is valid until the
// next call.
//
//sdlint:hotpath
func (s *Scratch) Tree(g *Graph, root int) []int {
	in, seen := s.set, s.visit()
	mark, val, q := s.mark, s.val, s.queue[:0]
	q = append(q, root)
	mark[root], val[root] = seen, -1
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, w := range g.Neighbors(u) {
			if st := mark[w]; st >= in && st < seen {
				mark[w], val[w] = seen, u
				q = append(q, w)
			}
		}
	}
	s.queue = q
	return q
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
	// Depth-first walk on the queue's storage as a stack: a node's
	// children are its ascending neighbours whose parent it is, pushed
	// in reverse so the smallest comes off first.
	stack := append(s.Tree(g, root)[:0], root)
	seen := s.seen
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

// Components returns the connected components of the alive subgraph in BFS
// visit order (components ordered by smallest node, members in discovery
// order). Only the returned component slices are allocated; all traversal
// state comes from the scratch. A component that spans all n nodes of g is
// returned with nil members: they are every node of g, and copying them
// would cost O(n) for a caller that only counts the components.
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
		s.queue = q[:0] // retain grown capacity for the next component
		if len(q) == n {
			return [][]int{nil}
		}
		comp := make([]int, len(q))
		copy(comp, q)
		comps = append(comps, comp)
	}
	return comps
}

// sortedComponents is Components with every component's members in
// ascending order, without sorting: it stamps each member with its
// component's index, then one ascending pass over the nodes rewrites every
// component in place. Components stay ordered by their smallest node.
func (s *Scratch) sortedComponents(g *Graph, alive []bool) [][]int {
	comps := s.Components(g, alive)
	if len(comps) == 1 && comps[0] == nil { // spans g: 0..n-1 ascending
		comps[0] = make([]int, g.N())
		for v := range comps[0] {
			comps[0][v] = v
		}
		return comps
	}
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
	return len(s.Ball(g, nodes[:1], -1)) == len(nodes)
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
// disconnected or empty. It replaces the current set.
func (s *Scratch) StrongDiameter(g *Graph, nodes []int) int {
	if len(nodes) == 0 {
		return -1
	}
	sub, _ := s.InducedSubgraph(g, nodes)
	s.MarkAll(sub.N())
	diam := 0
	for v := range sub.N() {
		order := s.Ball(sub, []int{v}, -1)
		if len(order) != sub.N() {
			return -1
		}
		diam = max(diam, s.Dist(order[len(order)-1]))
	}
	return diam
}

// DiameterApprox is the linear-time 2-sweep diameter approximation of g:
// TwoSweep on each connected component. The returned value is the maximum
// over components — a lower bound on the true diameter, which is at most
// twice it. Total work is O(n + m) regardless of how many components g
// splits into, and steady-state allocations are zero: all traversal state
// lives in the scratch. It replaces the current set.
func (s *Scratch) DiameterApprox(g *Graph) int {
	s.MarkAll(g.N())
	diam := 0
	for v := range g.N() {
		if !s.Has(v) {
			continue
		}
		diam = max(diam, s.TwoSweep(g, v))
		for _, u := range s.Order() { // the second sweep's: v's component
			s.Remove(u)
		}
	}
	return diam
}

// TwoSweep returns the 2-sweep lower bound on the diameter of the
// component of the current set that holds v: a BFS from v finds a farthest
// node, and a second BFS reports that node's eccentricity. Order then
// gives the component's nodes in the second sweep's visit order.
func (s *Scratch) TwoSweep(g *Graph, v int) int {
	order := s.Ball(g, []int{v}, -1)
	far := order[len(order)-1]
	order = s.Ball(g, []int{far}, -1)
	return s.Dist(order[len(order)-1])
}

// scratchPool backs the package-level convenience functions in
// traverse.go, so even scratch-less callers reuse traversal state across
// calls.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }
