// Package graph provides the undirected-graph substrate shared by every
// algorithm in this repository: a compact adjacency representation, the
// synthetic graph families used in the experiments (including the subdivided
// expander of the paper's Section 3 barrier), and the traversal and metric
// primitives (BFS, connected components, diameters, induced subgraphs, power
// graphs) that the decomposition algorithms are built from.
//
// Graphs are simple (no self-loops, no parallel edges) and nodes are the
// integers 0..N()-1, matching the CONGEST-model convention of O(log n)-bit
// unique identifiers.
//
// # Representation
//
// A Graph is stored in compressed-sparse-row (CSR) form: one flat offsets
// array of length N()+1 and one flat targets array of length 2·M(). Node v's
// neighbors are targets[offsets[v]:offsets[v+1]], sorted increasing.
// Neighbors therefore returns a subslice of shared storage — zero
// allocations, zero pointer chasing — and the whole adjacency structure is
// two contiguous allocations regardless of node count. DESIGN.md documents
// the layout invariants.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Graph is an immutable simple undirected graph in CSR form.
//
// Invariants (checked by the graph package's property tests):
//   - len(offsets) == N()+1, offsets[0] == 0, offsets non-decreasing,
//     offsets[N()] == len(targets) == 2*m;
//   - targets[offsets[v]:offsets[v+1]] is strictly increasing for every v
//     (simple graph: no duplicates, no self-loops);
//   - symmetry: u appears in v's row iff v appears in u's row.
type Graph struct {
	offsets []int64 // len N()+1; row v is targets[offsets[v]:offsets[v+1]]
	targets []int   // len 2*m; per-row sorted neighbor ids
	m       int     // number of undirected edges
}

// maxBuilderNodes bounds the node count a Builder accepts so endpoint pairs
// pack into a single uint64 sort key.
const maxBuilderNodes = math.MaxInt32

// Builder accumulates edges and produces an immutable Graph. Each edge is
// packed into one uint64 ((u<<32)|v with u < v), so the pending edge buffer
// costs 8 bytes per edge — half of the former [][2]int representation — and
// sorting it is a flat uint64 sort.
type Builder struct {
	n     int
	auto  bool // node count grows to max endpoint + 1
	edges []uint64
	err   error
}

// NewBuilder returns a Builder for a graph with n nodes (0..n-1).
func NewBuilder(n int) *Builder {
	b := &Builder{n: n}
	if n < 0 {
		b.err = errors.New("graph: negative node count")
	} else if n > maxBuilderNodes {
		b.err = fmt.Errorf("graph: node count %d exceeds limit %d", n, maxBuilderNodes)
	}
	return b
}

// NewAutoBuilder returns a Builder whose node count is inferred as the
// maximum endpoint + 1, for streaming inputs (e.g. edge lists) that do not
// declare a node count up front. DeclareNodes can pin a larger count at any
// point.
func NewAutoBuilder() *Builder {
	return &Builder{auto: true}
}

// DeclareNodes raises the node count to at least n; it is an error to
// declare fewer nodes than an already-seen endpoint requires.
func (b *Builder) DeclareNodes(n int) {
	if b.err != nil {
		return
	}
	if n < b.n {
		b.err = fmt.Errorf("graph: declared %d nodes but edges reference node %d", n, b.n-1)
		return
	}
	if n > maxBuilderNodes {
		b.err = fmt.Errorf("graph: node count %d exceeds limit %d", n, maxBuilderNodes)
		return
	}
	b.n = n
}

// AddEdge records the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are rejected; duplicate edges are deduplicated at Build time.
func (b *Builder) AddEdge(u, v int) {
	if b.err != nil {
		return
	}
	if u < 0 || v < 0 || ((u >= b.n || v >= b.n) && !b.auto) {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at %d", u)
		return
	}
	if u > v {
		u, v = v, u
	}
	if b.auto && v >= b.n {
		if v >= maxBuilderNodes {
			b.err = fmt.Errorf("graph: node id %d exceeds limit %d", v, maxBuilderNodes)
			return
		}
		b.n = v + 1
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
}

// Build finalizes the graph: one flat uint64 sort over the packed edges,
// then a counting pass and a scatter pass straight into the CSR arrays.
// Duplicate edges are skipped during both passes. No per-node sort is
// needed: scattering the (u,v)-sorted deduplicated edge list fills every
// row in increasing order (back-edges of earlier rows land first, forward
// edges after, both ascending), a property the graph tests assert.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	slices.Sort(b.edges)
	offsets := make([]int64, b.n+1)
	m := 0
	prev := ^uint64(0)
	for _, e := range b.edges {
		if e == prev {
			continue
		}
		prev = e
		offsets[e>>32+1]++
		offsets[e&0xffffffff+1]++
		m++
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int, 2*m)
	// Scatter using offsets[v] as the row cursor; afterwards offsets[v]
	// holds the end of row v, i.e. the start of row v+1, so one shift
	// restores the offset array.
	prev = ^uint64(0)
	for _, e := range b.edges {
		if e == prev {
			continue
		}
		prev = e
		u, v := int(e>>32), int(e&0xffffffff)
		targets[offsets[u]] = v
		offsets[u]++
		targets[offsets[v]] = u
		offsets[v]++
	}
	for v := b.n; v > 0; v-- {
		offsets[v] = offsets[v-1]
	}
	offsets[0] = 0
	// Release the packed buffer and poison the builder: it fed this graph
	// and cannot produce it again.
	b.edges = nil
	b.err = errors.New("graph: Build already called")
	return &Graph{offsets: offsets, targets: targets, m: m}, nil
}

// MustBuild is Build for graphs constructed from trusted generator code; it
// panics on error, which only happens on generator bugs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph with n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// fromCSR wraps already-valid CSR arrays (internal constructor for
// Scratch.InducedSubgraph, which builds rows directly).
func fromCSR(offsets []int64, targets []int) *Graph {
	return &Graph{offsets: offsets, targets: targets, m: len(targets) / 2}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns v's neighbor list in increasing order. The returned
// slice is a view of the graph's flat CSR storage — no allocation — and
// must not be modified.
//
//sdlint:hotpath
func (g *Graph) Neighbors(v int) []int {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi:hi]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges as (u, v) pairs with u < v, in sorted order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	g.ForEachEdge(func(u, v int) {
		out = append(out, [2]int{u, v})
	})
	return out
}

// ForEachEdge calls fn(u, v) for every edge with u < v, in sorted order,
// without materializing an edge list.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// MemoryFootprint returns the approximate resident heap bytes of the graph:
// the two CSR arrays plus fixed overhead. The serving layer's graph store
// uses it as the eviction weight, so cache budgets are denominated in real
// bytes rather than abstract node+edge units.
func (g *Graph) MemoryFootprint() int {
	const wordBytes = 8 // int64 offsets and int targets on 64-bit platforms
	return wordBytes*(len(g.offsets)+len(g.targets)) + 64
}

// WithoutEdges returns g minus the edges of cut, each given as a (u, v)
// pair in either order, on the same nodes; a pair that is not an edge of g
// is ignored.
func WithoutEdges(g *Graph, cut [][2]int) *Graph {
	drop := make([]bool, len(g.targets))
	for _, e := range cut {
		for _, uv := range [2][2]int{e, {e[1], e[0]}} {
			if i, ok := slices.BinarySearch(g.Neighbors(uv[0]), uv[1]); ok {
				drop[g.offsets[uv[0]]+int64(i)] = true
			}
		}
	}
	offsets := make([]int64, g.N()+1)
	targets := make([]int, 0, len(g.targets))
	for v := range g.N() {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			if !drop[i] {
				targets = append(targets, g.targets[i])
			}
		}
		offsets[v+1] = int64(len(targets))
	}
	return fromCSR(offsets, targets)
}
