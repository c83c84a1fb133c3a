package rg

// This file implements the *edge version* of the deterministic weak-diameter
// carving, which the paper states alongside the node version ("all results
// in Table 2 ... also apply to the edge version, where we remove at most an
// ε fraction of the edges, instead of removing nodes. The proofs for the
// edge version are essentially the same").
//
// The skeleton is the node version's bit-phase growth with two changes:
//
//   - when a red cluster retires, the *edges* between it and its proposers
//     are cut instead of killing the proposers — every node stays alive and
//     ends up in some cluster;
//   - acceptance is measured in volume: a red cluster X accepts iff the
//     number of proposal edges is at least δ·vol(X) (vol = degree sum of
//     members in the remaining graph), with δ = ε/(4b). A retiring cluster
//     therefore cuts fewer than δ·vol(X) edges; summing vol over clusters
//     bounds each phase's cuts by 2δ·m, and the b phases by ε·m/2.
//
// The phase-end invariant carries over verbatim: any remaining (uncut) edge
// from a live blue node to a red cluster would have triggered a proposal, so
// after all phases every remaining inter-cluster edge is gone, i.e. the
// clusters are non-adjacent in the remaining graph.

import (
	"fmt"
	"sort"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

// EdgeCarving is the result of the edge-version weak carving: a clustering
// of all nodes (nobody dies) plus the set of removed edges. Within the
// remaining graph (g minus Cut), distinct clusters are non-adjacent.
type EdgeCarving struct {
	Carving *cluster.Carving
	Cut     [][2]int // removed edges, canonical (u < v) order
}

// CarveEdges runs the edge-version weak carving on the subgraph induced by
// nodes (nil = all of g): it cuts at most an eps fraction of that subgraph's
// edges and clusters every node, with per-cluster Steiner trees as in the
// node version. Steiner trees only use uncut edges.
func CarveEdges(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*EdgeCarving, error) {
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
	st := newEdgeState(g, nodes, eps)
	for phase := 0; phase < st.b; phase++ {
		st.runPhase(phase, m)
	}
	return st.result(), nil
}

type edgeState struct {
	g     *graph.Graph
	b     int
	delta float64

	inS      []bool
	label    []int
	cut      map[[2]int]bool
	clusters map[int]*edgeClusterInfo

	activeBlue []int
	inActive   []bool

	// Proposal scratch, reused every step (mirroring the node version in
	// rg.go — the per-step maps this replaces were the hot-loop allocators
	// sdlint's hotpathalloc flagged): props collects this step's proposals
	// in blue-node order, grouped buckets them by target label (counting
	// scatter), propLabels/propEnds delimit the groups, propCount is the
	// per-label counting array (reset to zero after each step), and slot
	// dedups one node's proposals per target during its neighbor scan.
	props      []edgeProposal
	grouped    []edgeProposal
	propLabels []int
	propEnds   []int
	propCount  []int
	slot       []int

	// Resolution scratch: accepted marks this step's accepting labels,
	// joiners/joinIdx select each proposer's smallest-label accepted
	// target. All masks are reset before resolveProposals returns.
	accepted []bool
	joiners  []int
	joinIdx  []int
}

// edgeClusterInfo is one cluster's growth state. Unlike the node version,
// a node may be offered to a tree it already holds, so the cluster keeps
// its own node-to-index lookup; the first attachment wins, and depth (per
// tree index) keeps the smallest depth any attachment offered.
type edgeClusterInfo struct {
	label    int
	vol      int // degree sum of members in the remaining subgraph
	tree     *cluster.Tree
	index    map[int]int // tree node -> index in tree.Nodes
	depth    []int
	maxDepth int
	retired  bool
}

func newEdgeState(g *graph.Graph, nodes []int, eps float64) *edgeState {
	n := g.N()
	st := &edgeState{
		g:         g,
		b:         labelBits(n),
		delta:     eps / (4 * float64(labelBits(n))),
		inS:       make([]bool, n),
		label:     make([]int, n),
		cut:       make(map[[2]int]bool),
		clusters:  make(map[int]*edgeClusterInfo, len(nodes)),
		inActive:  make([]bool, n),
		propCount: make([]int, n),
		slot:      make([]int, n),
		accepted:  make([]bool, n),
		joinIdx:   make([]int, n),
	}
	for v := range st.label {
		st.label[v] = -1
	}
	for _, v := range nodes {
		st.inS[v] = true
		st.label[v] = v
	}
	for _, v := range nodes {
		st.clusters[v] = &edgeClusterInfo{
			label: v,
			vol:   st.degreeIn(v),
			tree:  cluster.NewTree(v),
			index: map[int]int{v: 0},
			depth: []int{0},
		}
	}
	return st
}

// degreeIn returns v's degree within the induced, uncut subgraph.
func (st *edgeState) degreeIn(v int) int {
	d := 0
	for _, u := range st.g.Neighbors(v) {
		if st.inS[u] && !st.isCut(v, u) {
			d++
		}
	}
	return d
}

func (st *edgeState) isCut(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return st.cut[[2]int{u, v}]
}

func (st *edgeState) cutEdge(u, v int) {
	if u > v {
		u, v = v, u
	}
	if !st.cut[[2]int{u, v}] {
		st.cut[[2]int{u, v}] = true
		// Volumes shrink with the cut edge.
		st.clusters[st.label[u]].vol--
		st.clusters[st.label[v]].vol--
	}
}

func (st *edgeState) runPhase(phase int, m *rounds.Meter) {
	for _, c := range st.clusters {
		c.retired = false
	}
	st.seedActiveBlue(phase)
	for {
		if st.collectProposals(phase) == 0 {
			break
		}
		m.Charge("rg/propose", 2)
		st.resolveProposals(m)
	}
	depth := 0
	for _, c := range st.clusters {
		if c.maxDepth > depth {
			depth = c.maxDepth
		}
	}
	m.Charge("rg/congestion", int64(depth+1)*int64(phase+1))
}

// seedActiveBlue initializes the proposer candidate set for a phase: every
// blue node with at least one uncut edge to a red node.
//
//sdlint:hotpath
func (st *edgeState) seedActiveBlue(phase int) {
	st.activeBlue = st.activeBlue[:0]
	for v := range st.inActive {
		st.inActive[v] = false
	}
	for v, ok := range st.inS {
		if !ok || bit(st.label[v], phase) != 0 {
			continue
		}
		for _, u := range st.g.Neighbors(v) {
			if st.inS[u] && !st.isCut(v, u) && bit(st.label[u], phase) == 1 {
				st.addActive(v)
				break
			}
		}
	}
}

// addActive adds v to the candidate proposer set once.
//
//sdlint:hotpath
func (st *edgeState) addActive(v int) {
	if !st.inActive[v] {
		st.inActive[v] = true
		st.activeBlue = append(st.activeBlue, v)
	}
}

// edgeProposal is one (blue node, red cluster) proposal carrying all of the
// node's uncut edges into that cluster (via is the smallest-id endpoint,
// used for the tree attachment). Unlike the node version, a blue node
// proposes to EVERY adjacent live red cluster: this guarantees that when a
// cluster retires, every remaining blue-to-it edge belongs to a proposer and
// gets cut, which is what preserves the phase-end invariant without killing
// nodes.
type edgeProposal struct {
	node   int
	target int // label of the proposed-to cluster
	via    int
	edges  int
}

// collectProposals computes this step's proposals in deterministic order:
// every live blue candidate proposes to EVERY adjacent live red cluster
// (see edgeProposal), its uncut edges into each target merged into one
// proposal during the neighbor scan via the slot cursor. The proposals
// are bucketed by target into the reusable grouped/propLabels scratch
// (counting scatter — no per-step map) and their count is returned.
//
//sdlint:hotpath
func (st *edgeState) collectProposals(phase int) int {
	sort.Ints(st.activeBlue)
	kept := st.activeBlue[:0]
	st.props = st.props[:0]
	for _, v := range st.activeBlue {
		if bit(st.label[v], phase) != 0 {
			st.inActive[v] = false
			continue
		}
		// Merge v's uncut red edges by live target cluster. slot holds
		// 1-based indexes into props for targets seen during this node's
		// scan and is zeroed again before the next node.
		vStart := len(st.props)
		for _, u := range st.g.Neighbors(v) {
			if !st.inS[u] || st.isCut(v, u) || bit(st.label[u], phase) != 1 {
				continue
			}
			lu := st.label[u]
			if st.clusters[lu].retired {
				continue
			}
			if idx := st.slot[lu]; idx != 0 {
				p := &st.props[idx-1]
				p.edges++
				if u < p.via {
					p.via = u
				}
			} else {
				st.props = append(st.props, edgeProposal{node: v, target: lu, via: u, edges: 1})
				st.slot[lu] = len(st.props)
			}
		}
		for i := vStart; i < len(st.props); i++ {
			st.slot[st.props[i].target] = 0
		}
		if len(st.props) > vStart {
			kept = append(kept, v)
		} else {
			st.inActive[v] = false
		}
	}
	st.activeBlue = kept
	st.groupProposals()
	return len(st.props)
}

// groupProposals buckets st.props by target label into st.grouped:
// distinct labels sorted in st.propLabels, group i ending at
// st.propEnds[i], proposals within a group in blue-node order (the
// order the former per-label map append produced). propCount is used as
// the counting/cursor array and left zeroed.
//
//sdlint:hotpath
func (st *edgeState) groupProposals() {
	st.propLabels = st.propLabels[:0]
	for _, p := range st.props {
		if st.propCount[p.target] == 0 {
			st.propLabels = append(st.propLabels, p.target)
		}
		st.propCount[p.target]++
	}
	sort.Ints(st.propLabels)
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
		st.grouped[st.propCount[p.target]] = p
		st.propCount[p.target]++
	}
	for _, l := range st.propLabels {
		st.propCount[l] = 0
	}
}

// resolveProposals applies accept/retire decisions for one step over the
// grouped proposals, entirely on the reusable resolution scratch.
func (st *edgeState) resolveProposals(m *rounds.Meter) {
	maxDepth := 0
	for _, l := range st.propLabels {
		if d := st.clusters[l].maxDepth; d > maxDepth {
			maxDepth = d
		}
	}
	m.Charge("rg/aggregate", 2*int64(maxDepth+1))
	m.ChargeMessages(int64(len(st.propLabels)))

	// Simultaneous accept/retire decisions against this step's proposals.
	start := 0
	for i, l := range st.propLabels {
		x := st.clusters[l]
		edgeCount := 0
		for _, p := range st.grouped[start:st.propEnds[i]] {
			edgeCount += p.edges
		}
		start = st.propEnds[i]
		if float64(edgeCount) >= st.delta*float64(x.vol) {
			st.accepted[l] = true
		} else {
			x.retired = true
		}
	}
	// Joins: each proposer joins its smallest-label accepting target.
	// Groups run in ascending label order, so the first accepted group
	// claiming a node is that node's smallest-label target.
	st.joiners = st.joiners[:0]
	start = 0
	for i, l := range st.propLabels {
		end := st.propEnds[i]
		if st.accepted[l] {
			for j := start; j < end; j++ {
				if v := st.grouped[j].node; st.joinIdx[v] == 0 {
					st.joinIdx[v] = j + 1
					st.joiners = append(st.joiners, v)
				}
			}
		}
		start = end
	}
	start = 0
	for i, l := range st.propLabels {
		end := st.propEnds[i]
		if !st.accepted[l] {
			// Retired: cut every proposal edge into this cluster, unless the
			// proposer joins it... which it cannot (it is retired), so cut all.
			for j := start; j < end; j++ {
				p := st.grouped[j]
				for _, u := range st.g.Neighbors(p.node) {
					if st.inS[u] && !st.isCut(p.node, u) && st.label[u] == l {
						st.cutEdge(p.node, u)
					}
				}
			}
		}
		start = end
	}
	// Apply joins in deterministic node order.
	sort.Ints(st.joiners)
	for _, v := range st.joiners {
		p := st.grouped[st.joinIdx[v]-1]
		st.join(st.clusters[p.target], p)
	}
	// Reset the per-step scratch masks.
	for _, v := range st.joiners {
		st.joinIdx[v] = 0
	}
	for _, l := range st.propLabels {
		st.accepted[l] = false
	}
}

func (st *edgeState) join(x *edgeClusterInfo, p edgeProposal) {
	v := p.node
	if st.label[v] == x.label {
		return
	}
	old := st.clusters[st.label[v]]
	dv := st.degreeIn(v)
	old.vol -= dv
	st.label[v] = x.label
	x.vol += dv
	pi, ok := x.index[p.via]
	if !ok {
		panic(fmt.Sprintf("rg: edge tree invariant broken: via %d not in tree %d", p.via, x.label))
	}
	d := x.depth[pi] + 1
	vi, ok := x.index[v]
	if !ok {
		vi = x.tree.Attach(v, pi)
		x.index[v] = vi
		x.depth = append(x.depth, d)
	} else if x.depth[vi] > d {
		x.depth[vi] = d
	}
	if x.depth[vi] > x.maxDepth {
		x.maxDepth = x.depth[vi]
	}
	for _, w := range st.g.Neighbors(v) {
		if st.inS[w] && !st.isCut(v, w) {
			st.addActive(w)
		}
	}
}

func (st *edgeState) result() *EdgeCarving {
	assign := make([]int, st.g.N())
	for v := range assign {
		assign[v] = cluster.Unclustered
	}
	var labels []int
	counts := make(map[int]int)
	for v, ok := range st.inS {
		if ok {
			counts[st.label[v]]++
		}
	}
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	id := make(map[int]int, len(labels))
	centers := make([]int, len(labels))
	trees := make([]*cluster.Tree, len(labels))
	for i, l := range labels {
		id[l] = i
		centers[i] = st.clusters[l].tree.Root
		trees[i] = st.clusters[l].tree
	}
	for v, ok := range st.inS {
		if ok {
			assign[v] = id[st.label[v]]
		}
	}
	cut := make([][2]int, 0, len(st.cut))
	for e := range st.cut {
		cut = append(cut, e)
	}
	sort.Slice(cut, func(i, j int) bool {
		if cut[i][0] != cut[j][0] {
			return cut[i][0] < cut[j][0]
		}
		return cut[i][1] < cut[j][1]
	})
	return &EdgeCarving{
		Carving: &cluster.Carving{Assign: assign, K: len(labels), Centers: centers, Trees: trees},
		Cut:     cut,
	}
}
