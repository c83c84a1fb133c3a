package core

import (
	"context"
	"slices"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
)

// Scratch is the reusable working state of the Theorem 2.1 loop
// (StrongCarveContext), the Theorem 2.3 reduction (DecomposeContext) and
// Lemma 3.1 (CutOrComponent). It extends graph.Scratch, whose stamped,
// set-restricted traversals (Layers, SplitSet, Preorder) let every pass
// visit only the set it works on, with the lists those loops build.
// Buffers only grow.
//
// A Scratch is not safe for concurrent use. The Engine keeps one per
// worker, which also serves its component split and subgraph remaps, and
// hands it to a run through WithScratch; a run that finds none on its
// context makes its own and threads it through its sub-calls.
type Scratch struct {
	graph.Scratch

	depth  []int // Steiner-tree depths by tree position
	counts []int // per-cluster member counts

	levels [2]level // Theorem 2.1: the tasks of this iteration and the next
	rest   [2][]int // Theorem 2.3: the uncoloured nodes, double-buffered
	order  []int    // Lemma 3.1: the set in BFS-tree pre-order
}

// level is one iteration's worth of Theorem 2.1 tasks: disjoint connected
// node sets, each a capacity-capped window of slab. When slab grows, the
// windows already handed out keep the old array, which nothing writes to
// again.
type level struct {
	slab  []int
	comps [][]int
}

// NewScratch returns an empty Scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

type scratchKey struct{}

type scratchHint struct {
	s         *Scratch
	connected *graph.Graph
}

// WithScratch returns ctx carrying s, which the core entry points called
// with ctx use instead of allocating their own. connected, when non-nil,
// is a graph the caller has proven connected: a Theorem 2.1 run over all
// of its nodes takes them as its one component instead of splitting them
// again. s must not be shared by runs that execute at the same time.
func WithScratch(ctx context.Context, s *Scratch, connected *graph.Graph) context.Context {
	return context.WithValue(ctx, scratchKey{}, scratchHint{s: s, connected: connected})
}

// scratchOf returns the scratch ctx carries (nil if none) and the graph
// ctx vouches is connected (nil if none).
func scratchOf(ctx context.Context) (*Scratch, *graph.Graph) {
	h, _ := ctx.Value(scratchKey{}).(scratchHint)
	return h.s, h.connected
}

// withScratch returns ctx and the scratch it carries. If it carries none,
// a fresh one is attached, so the core entry points ctx is passed on to
// share it.
func withScratch(ctx context.Context) (context.Context, *Scratch) {
	if s, _ := scratchOf(ctx); s != nil {
		return ctx, s
	}
	s := NewScratch()
	return WithScratch(ctx, s, nil), s
}

// treeDepth returns the depth of Steiner tree t and, when assign is
// non-nil, the largest depth of a tree node that assign places in cluster
// cl (relay-only nodes deeper than every member do not matter for
// covering the cluster). It needs no per-node state of the host graph.
func (sc *Scratch) treeDepth(t *cluster.Tree, assign []int, cl int) (all, members int) {
	if t == nil || len(t.Nodes) <= 1 {
		return 0, 0
	}
	depth := resize(sc.depth, len(t.Nodes))
	depth[0] = 0
	for i := 1; i < len(t.Nodes); i++ {
		d := depth[t.Parent[i]] + 1
		depth[i] = d
		all = max(all, d)
		if assign != nil && assign[t.Nodes[i]] == cl {
			members = max(members, d)
		}
	}
	sc.depth = depth[:0]
	return all, members
}

// startLevels empties both Theorem 2.1 levels.
func (sc *Scratch) startLevels() (cur, next *level) {
	for i := range sc.levels {
		l := &sc.levels[i]
		clear(l.comps) // drop references into other callers' sets
		l.slab, l.comps = l.slab[:0], l.comps[:0]
	}
	return &sc.levels[0], &sc.levels[1]
}

// splitInto appends the components of the current set within s to l.
func (sc *Scratch) splitInto(g *graph.Graph, s []int, l *level) {
	l.slab, l.comps = sc.SplitSet(g, s, l.slab, l.comps)
}

// sortedSet returns nodes if it is strictly ascending, else an ascending
// copy without repeats.
func sortedSet(nodes []int) []int {
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			s := slices.Clone(nodes)
			slices.Sort(s)
			return slices.Compact(s)
		}
	}
	return nodes
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
