// Package rg implements the deterministic weak-diameter ball carving of
// Rozhoň and Ghaffari [RG20], which the paper uses as its black-box
// algorithm A (the paper plugs in the optimized variant of Ghaffari, Grunau,
// and Rozhoň [GGR21]; see DESIGN.md for the substitution note).
//
// Given an n-node graph and a boundary parameter ε, Carve removes at most an
// ε fraction of the nodes and clusters the rest into non-adjacent clusters,
// each augmented with a Steiner tree in the host graph such that
//
//   - every cluster member is a tree node (relays may be non-members or even
//     dead nodes, which is exactly why the diameter guarantee is weak);
//   - the tree depth is R(n,ε) = O(log³ n / ε);
//   - each edge belongs to at most L(n,ε) = b = ⌈log₂ n⌉ trees.
//
// The algorithm runs in b phases, one per identifier bit. In phase i, a
// cluster is red if bit i of its label is 1 and blue otherwise. Each step,
// every live blue node adjacent to a live, non-retired red cluster proposes
// to its smallest-label candidate through its smallest-id neighbor in that
// cluster. A red cluster that would grow by at least δ·|C| (δ = ε/(2b))
// accepts all proposers — they adopt its label and attach to its Steiner
// tree through the proposal edge — and otherwise it retires for the phase
// and its proposers die. The classic invariant makes this correct: a node
// only ever joins an *adjacent* cluster, and adjacent live nodes agree on
// all previously processed label bits, so processed bits never regress.
//
// The same invariant means a node never rejoins a cluster it left: a node
// that leaves cluster l in phase i takes a label whose bit i differs from
// l's, and keeps that bit from then on. A tree therefore never receives a
// node it already holds, so a joining node's tree depth is exactly its via
// node's plus one.
//
// A node is live while its label is non-negative; dead nodes and nodes
// outside the carved set have label -1. A cluster that loses its last
// member can never grow again, so its tree attachments are dropped at the
// end of each phase and the carver's memory stays linear in the carved set
// and the surviving trees.
package rg

import (
	"fmt"
	"math/bits"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

// Params reports the theoretical guarantees of Carve for a given n and ε,
// with explicit constants matching the implementation. Theorem 2.1 consumes
// these bounds when sizing its BFS windows.
type Params struct {
	Bits       int // b: number of label bits (phases)
	Delta      float64
	MaxDepth   int // R(n, ε) bound on Steiner tree depth
	Congestion int // L(n, ε) bound on per-edge tree count
}

// ParamsFor computes the parameter bounds for an n-node run with boundary ε.
func ParamsFor(n int, eps float64) Params {
	b := labelBits(n)
	delta := eps / (2 * float64(b))
	// A cluster grows for at most log_{1+δ}(n) accepting steps per phase and
	// can grow in every phase; each accepting step deepens its tree by at
	// most one hop.
	perPhase := growthSteps(n, delta)
	return Params{
		Bits:       b,
		Delta:      delta,
		MaxDepth:   b * perPhase,
		Congestion: b,
	}
}

// Carve runs the deterministic weak-diameter ball carving on the subgraph
// induced by nodes (nil means all of g), with boundary parameter
// eps ∈ (0, 1]. The returned carving assigns cluster ids to surviving nodes
// of the subgraph and leaves every other node Unclustered.
func Carve(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("rg: eps %v outside (0, 1]", eps)
	}
	n := g.N()
	if nodes == nil {
		nodes = make([]int, n)
		for v := range nodes {
			nodes[v] = v
		}
	}
	st := newState(g, nodes, eps)
	for phase := 0; phase < st.b; phase++ {
		st.runPhase(phase, m)
	}
	return st.carving(), nil
}

type proposal struct {
	label int // proposed-to cluster
	node  int
	via   int
}

// clusterInfo is the per-cluster growth state. Labels are node ids, so the
// state stores these as one flat slice indexed by label instead of a
// map[int]*clusterInfo — no per-node allocation. A cluster's Steiner tree
// is its root (the label) followed by its entries in the state's attach
// log; treeSize counts both.
type clusterInfo struct {
	size     int // live members
	treeSize int
	maxDepth int
}

// attach is one tree attachment: node joined cluster label's tree as a
// child of the node at index parent of that tree. A cluster's attachments
// appear in the log in tree-index order.
type attach struct {
	label, node, parent int
}

type state struct {
	g     *graph.Graph
	b     int
	delta float64

	nodes    []int         // the carved set S; every cluster label is one of these
	label    []int         // current cluster label; -1 for dead nodes and nodes outside S
	clusters []clusterInfo // indexed by label; a label outside S has size 0
	retired  []bool        // per label: the cluster retired in the current phase

	// Steiner trees: attaches logs the tree attachments of every cluster
	// that still has a member (see dropDeadAttaches), and pos[v] is v's
	// index in its current cluster's tree, depth[v] its hop distance from
	// that tree's root. A node that has never moved is the root of its
	// own singleton cluster (index 0, depth 0).
	attaches []attach
	pos      []int
	depth    []int

	activeBlue []int  // candidate proposers, maintained incrementally
	inActive   []bool // membership mask for activeBlue

	// Proposal scratch, reused every step: props collects this step's
	// proposals in activeBlue order, grouped holds them bucketed by label
	// (CSR-style counting scatter), propLabels the distinct labels in
	// first-proposal order, propEnds the per-group end offsets into
	// grouped, and propCount the per-label counting array (always reset to
	// zero after a step).
	props      []proposal
	grouped    []proposal
	propLabels []int
	propEnds   []int
	propCount  []int
}

func newState(g *graph.Graph, nodes []int, eps float64) *state {
	n := g.N()
	st := &state{
		g:         g,
		b:         labelBits(n),
		delta:     eps / (2 * float64(labelBits(n))),
		nodes:     nodes,
		label:     make([]int, n),
		clusters:  make([]clusterInfo, n),
		retired:   make([]bool, n),
		pos:       make([]int, n),
		depth:     make([]int, n),
		inActive:  make([]bool, n),
		propCount: make([]int, n),
	}
	for v := range st.label {
		st.label[v] = -1
	}
	for _, v := range nodes {
		st.label[v] = v
		st.clusters[v] = clusterInfo{size: 1, treeSize: 1}
	}
	return st
}

func bit(x, i int) int { return (x >> i) & 1 }

func labelBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// growthSteps returns the maximum number of accepting steps a cluster can
// have within one phase: growing by a factor (1+δ) from size 1 cannot exceed
// n members.
func growthSteps(n int, delta float64) int {
	steps := 1
	size := 1.0
	for size < float64(n) {
		size *= 1 + delta
		size += 1 // acceptance adds at least one node even for tiny clusters
		steps++
		if steps > 64*1024*1024 {
			break // defensive; unreachable for sane (n, δ)
		}
	}
	return steps
}

// runPhase executes one bit phase to quiescence.
func (st *state) runPhase(phase int, m *rounds.Meter) {
	// Cluster labels are exactly the node ids of S, so the per-phase scans
	// walk the carved set, not all of the host graph's cluster slots.
	for _, l := range st.nodes {
		st.retired[l] = false
	}
	st.seedActiveBlue(phase)

	for st.collectProposals(phase) > 0 {
		m.Charge("rg/propose", 2)
		st.resolveProposals(m)
	}
	// Once per phase: pipelined tree maintenance over congested edges.
	depth := 0
	for _, l := range st.nodes {
		if d := st.clusters[l].maxDepth; d > depth {
			depth = d
		}
	}
	m.Charge("rg/congestion", int64(depth+1)*int64(phase+1))
	st.dropDeadAttaches()
}

// seedActiveBlue initializes the proposer candidate set for a phase: every
// live blue node of S. It reads labels only; the first collectProposals
// drops the candidates that have no live, non-retired red neighbor. The
// previous phase ended only once every candidate had dropped out, so the
// set starts empty.
//
//sdlint:hotpath
func (st *state) seedActiveBlue(phase int) {
	for _, v := range st.nodes {
		if l := st.label[v]; l >= 0 && bit(l, phase) == 0 {
			st.addActive(v)
		}
	}
}

// addActive adds v to the candidate proposer set once.
//
//sdlint:hotpath
func (st *state) addActive(v int) {
	if !st.inActive[v] {
		st.inActive[v] = true
		st.activeBlue = append(st.activeBlue, v)
	}
}

// collectProposals computes this step's proposals: every live blue
// candidate proposes to the smallest-label non-retired red cluster among
// its neighbors, through its smallest-id member neighbor. The proposals
// are bucketed by label into the reusable grouped/propLabels scratch
// (counting scatter — no per-step map) and their count is returned.
//
// Neither activeBlue nor propLabels is sorted, because the step's outcome
// does not depend on the order in which candidates are scanned or groups
// are resolved:
//
//   - each candidate makes at most one proposal per step, so it lands in
//     exactly one group, and no group's accept or retire touches another
//     group's proposers;
//   - a red cluster's size, which decides accept or retire, changes only
//     through its own group: proposers leave or die out of blue clusters,
//     and blue clusters are never in propLabels;
//   - depth[via] is fixed before the step starts: a via is red and never
//     joins a cluster in the same step.
//
// The orders decide only where in a tree's Nodes a node lands, never which
// (node, parent) edges the tree has.
//
//sdlint:hotpath
func (st *state) collectProposals(phase int) int {
	kept := st.activeBlue[:0]
	st.props = st.props[:0]
	for _, v := range st.activeBlue {
		if lv := st.label[v]; lv < 0 || bit(lv, phase) != 0 {
			st.inActive[v] = false // joined a red cluster or died
			continue
		}
		bestLabel, bestVia := -1, -1
		for _, u := range st.g.Neighbors(v) {
			lu := st.label[u]
			if lu < 0 || bit(lu, phase) != 1 || st.retired[lu] {
				continue
			}
			if bestLabel == -1 || lu < bestLabel || (lu == bestLabel && u < bestVia) {
				bestLabel, bestVia = lu, u
			}
		}
		if bestLabel >= 0 {
			st.props = append(st.props, proposal{label: bestLabel, node: v, via: bestVia})
			kept = append(kept, v)
		} else {
			// No live red neighbor, or all adjacent red clusters retired:
			// the node is asked again this phase only if a neighbor joins a
			// live red cluster, which re-adds it.
			st.inActive[v] = false
		}
	}
	st.activeBlue = kept
	st.groupProposals()
	return len(st.props)
}

// groupProposals buckets st.props by label into st.grouped: distinct labels
// in first-proposal order in st.propLabels, group i ending at
// st.propEnds[i], proposals within a group in props order. propCount is
// used as the counting/cursor array and left zeroed.
//
//sdlint:hotpath
func (st *state) groupProposals() {
	st.propLabels = st.propLabels[:0]
	for _, p := range st.props {
		if st.propCount[p.label] == 0 {
			st.propLabels = append(st.propLabels, p.label)
		}
		st.propCount[p.label]++
	}
	// Size grouped to props by appending (reuse idiom — steady state has
	// the capacity); every slot is rewritten by the scatter below.
	st.grouped = st.grouped[:0]
	st.grouped = append(st.grouped, st.props...)
	st.propEnds = st.propEnds[:0]
	start := 0
	for _, l := range st.propLabels {
		c := st.propCount[l]
		st.propCount[l] = start // repurpose as scatter cursor
		start += c
		st.propEnds = append(st.propEnds, start)
	}
	for _, p := range st.props {
		st.grouped[st.propCount[p.label]] = p
		st.propCount[p.label]++
	}
	for _, l := range st.propLabels {
		st.propCount[l] = 0
	}
}

// resolveProposals applies accept/retire decisions for one step over the
// grouped proposals. Every proposer is live and blue when its group comes
// up (see collectProposals), so a retiring cluster kills all of its
// proposers.
//
//sdlint:hotpath
func (st *state) resolveProposals(m *rounds.Meter) {
	maxDepth := 0
	for _, l := range st.propLabels {
		if d := st.clusters[l].maxDepth; d > maxDepth {
			maxDepth = d
		}
	}
	m.Charge("rg/aggregate", 2*int64(maxDepth+1))
	m.ChargeMessages(int64(len(st.propLabels)))

	start := 0
	for i, l := range st.propLabels {
		x := &st.clusters[l]
		ps := st.grouped[start:st.propEnds[i]]
		start = st.propEnds[i]
		if float64(len(ps)) >= st.delta*float64(x.size) {
			st.accept(x, l, ps)
		} else {
			st.retired[l] = true
			for _, p := range ps {
				st.kill(p.node)
			}
		}
	}
}

// accept moves every proposer in ps into cluster x (label l) and attaches
// it to x's Steiner tree through its proposal edge. The via node is a live
// member of x, so pos[via] indexes x's tree; by the no-rejoin invariant
// (package doc) the proposer is not yet a node of that tree.
//
//sdlint:hotpath
func (st *state) accept(x *clusterInfo, l int, ps []proposal) {
	for _, p := range ps {
		v, via := p.node, p.via
		if st.label[via] != l {
			treeInvariantBroken(l, via)
		}
		st.clusters[st.label[v]].size--
		st.label[v] = l
		x.size++
		st.attaches = append(st.attaches, attach{label: l, node: v, parent: st.pos[via]})
		st.pos[v] = x.treeSize
		x.treeSize++
		d := st.depth[via] + 1
		st.depth[v] = d
		if d > x.maxDepth {
			x.maxDepth = d
		}
		// Blue neighbors of the newly red node become candidates.
		for _, w := range st.g.Neighbors(v) {
			if st.label[w] >= 0 {
				st.addActive(w)
			}
		}
	}
}

// treeInvariantBroken reports a proposal whose via node is not a member of
// the cluster it proposes to, so pos[via] does not index that cluster's
// tree. Only a bug in the carver can get here; the formatting lives
// outside accept so the hot path stays allocation-free.
func treeInvariantBroken(l, via int) {
	panic(fmt.Sprintf("rg: tree invariant broken: via %d is not a member of cluster %d", via, l))
}

func (st *state) kill(v int) {
	st.clusters[st.label[v]].size--
	st.label[v] = -1
}

// dropDeadAttaches filters the attach log, in place and stably, down to
// the attachments of clusters that still have a member. A cluster that
// has emptied can never grow again: every acceptance attaches through a
// via node that is a member of the accepting cluster, and an empty
// cluster has none. carving() would skip its attachments anyway, so
// dropping them at the end of each phase changes nothing but the log's
// length, which stays the total size of the live trees plus at most |S|
// attachments made during one phase.
//
//sdlint:hotpath
func (st *state) dropDeadAttaches() {
	kept := st.attaches[:0]
	for _, a := range st.attaches {
		if st.clusters[a.label].size > 0 {
			kept = append(kept, a)
		}
	}
	st.attaches = kept
}

// carving materializes the final clusters in deterministic label order.
// Labels are node ids, so ascending slice order IS sorted label order; the
// label-to-dense-id table is one flat slice, not a map. The surviving
// clusters' trees are cut from shared slabs (capacity-capped, so an Attach
// on one tree reallocates instead of overwriting the next) and filled by
// one replay of the attach log, which after the last phase holds only the
// surviving clusters' attachments (see dropDeadAttaches). A label outside
// S has size 0, so the size test alone picks the surviving clusters.
func (st *state) carving() *cluster.Carving {
	assign := make([]int, st.g.N())
	for v := range assign {
		assign[v] = cluster.Unclustered
	}
	k, total := 0, 0
	id := make([]int, len(st.clusters))
	for l := range st.clusters {
		if st.clusters[l].size > 0 {
			id[l] = k
			k++
			total += st.clusters[l].treeSize
		}
	}
	centers := make([]int, k)
	trees := make([]*cluster.Tree, k)
	headers := make([]cluster.Tree, k)
	nodeSlab, parentSlab := make([]int, total), make([]int, total)
	lo := 0
	for l := range st.clusters {
		if st.clusters[l].size <= 0 {
			continue
		}
		hi := lo + st.clusters[l].treeSize
		nodeSlab[lo], parentSlab[lo] = l, -1
		t := &headers[id[l]]
		*t = cluster.Tree{Root: l, Nodes: nodeSlab[lo : lo+1 : hi], Parent: parentSlab[lo : lo+1 : hi]}
		centers[id[l]], trees[id[l]] = l, t
		lo = hi
	}
	for _, a := range st.attaches {
		trees[id[a.label]].Attach(a.node, a.parent)
	}
	for v, l := range st.label {
		if l >= 0 {
			assign[v] = id[l]
		}
	}
	return &cluster.Carving{Assign: assign, K: k, Centers: centers, Trees: trees}
}
