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
// The kernel works on the carved set S alone. It numbers S in ascending
// host-id order, so every comparison of labels or node ids has the same
// result in local ids as in host ids, and keeps an int32 CSR of G[S] and
// int32 state sized |S|. A node is live while its label is non-negative;
// dead nodes have label -1. Each node also has a status byte (red, dead,
// candidate), so the accept loop tests a neighbour with one load. A
// cluster that loses its last member can never grow again, so its tree
// attachments are dropped at the end of each phase and the carver's memory
// stays linear in the carved set and the surviving trees. The state of a
// carve of up to maxPooledNodes nodes is pooled, so a warm carve of such a
// set allocates only its output.
//
// The first step of each phase is seeded from whichever colour has fewer
// live nodes, as in direction-optimising BFS: blue nodes pull the best key
// from their neighbours, or red nodes push their keys to their neighbours.
// Both give the same proposals in the same order (see seedProposals).
package rg

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
// of the subgraph and leaves every other node Unclustered. nodes must be
// distinct ids in [0, g.N()); Carve returns an error otherwise.
func Carve(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("rg: eps %v outside (0, 1]", eps)
	}
	st := statePool.Get().(*state)
	defer st.release()
	if err := st.reset(g, nodes, eps); err != nil {
		return nil, err
	}
	for phase := 0; phase < st.b; phase++ {
		st.runPhase(phase, m)
	}
	return st.carving(), nil
}

// statePool holds carver states between calls. A state's buffers only grow,
// so a warm carve of a set no larger than an earlier one allocates nothing
// but its output.
var statePool = sync.Pool{New: func() any { return new(state) }}

// maxPooledNodes caps the carved sets whose state goes back to the pool.
// The pool keeps a state alive through the next garbage collection, which
// raises the heap goal by twice the state's size, ~140 B per node of S at
// average degree 8. For one large carve per operation that costs more than
// it saves: on the benchmark's 40000-node decompose-giant input, pooling
// every state raised peak RSS from ~33 to ~37.5 MiB, while the allocation
// it saved is a small share of the carve. Sets of up to this many nodes,
// such as the 10000-node components of decompose-strips and every graph
// the serve workloads store, are pooled.
const maxPooledNodes = 1 << 15

// proposal is node's proposal to join cluster label through its neighbor
// via, all in local ids.
type proposal struct {
	label, node, via int32
}

// clusterInfo is the per-cluster growth state, indexed by label. A
// cluster's Steiner tree is its root (the label) followed by its entries in
// the state's attach log; treeSize counts both.
type clusterInfo struct {
	size     int32 // live members
	treeSize int32
	maxDepth int32
}

// attach is one tree attachment: node joined cluster label's tree as a
// child of the node at index parent of that tree. A cluster's attachments
// appear in the log in tree-index order.
type attach struct {
	label, node, parent int32
}

// Status bits, one byte per label in state.stat and one per node in
// state.nstat. A label's byte is rebuilt at the start of every phase from
// bit phase of its host id, so the proposal scan tests one byte instead of
// a label's sign, bit and retirement; slot 0 stands for label -1 and is
// always dead. A node's byte starts each phase as its label's byte, so a
// live blue node that is not yet a candidate has status 0.
const (
	statRed     byte = 1 // bit phase of the (node's) label's host id is 1
	statRetired byte = 2 // labels only: the red cluster retired in this phase
	statDead    byte = 4 // slot 0 of stat, or a node that has no cluster
	statActive  byte = 8 // nodes only: the node is in activeBlue
)

// state is the carver's kernel. Every node of the carved set S has a local
// id in [0, |S|): S in ascending host-id order, so host[i] < host[j] iff
// i < j. Cluster labels are local ids too (a label is its root's id), and
// every array below is indexed by local id.
type state struct {
	g     *graph.Graph
	b     int
	delta float64

	host []int32 // local id -> host id
	seed []int32 // local ids in the caller's nodes order: the seeding order
	loc  []int32 // host id -> local id; all -1 between calls
	// adj[adjOff[v]:adjOff[v+1]] is v's neighbor list in G[S], ascending.
	adjOff []int32
	adj    []int32

	label    []int32       // current cluster label; -1 for dead nodes
	clusters []clusterInfo // indexed by label
	stat     []byte        // stat[l+1] holds label l's status bits

	// Steiner trees: attaches logs the tree attachments of every cluster
	// that still has a member (see dropDeadAttaches), and pos[v] is v's
	// index in its current cluster's tree, depth[v] its hop distance from
	// that tree's root. A node that has never moved is the root of its
	// own singleton cluster (index 0, depth 0).
	attaches []attach
	pos      []int32
	depth    []int32

	activeBlue []int32  // candidate proposers, maintained incrementally
	nstat      []byte   // per-node status bits; statActive marks activeBlue
	best       []uint64 // push seeding's per-node keys; all MaxUint64 between phases

	// Proposal scratch, reused every step: props collects this step's
	// proposals in activeBlue order, grouped holds them bucketed by label
	// (CSR-style counting scatter), propLabels the distinct labels in
	// first-proposal order, propEnds the per-group end offsets into
	// grouped, and propCount the per-label counting array (always reset to
	// zero after a step).
	props      []proposal
	grouped    []proposal
	propLabels []int32
	propEnds   []int32
	propCount  []int32

	id []int32 // carving's label -> output cluster id table
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve returns s emptied, with capacity for at least n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// reset prepares st to carve the subgraph of g induced by nodes (nil means
// all of g): it numbers S, builds G[S]'s adjacency and puts every node in a
// singleton cluster of its own.
func (st *state) reset(g *graph.Graph, nodes []int, eps float64) error {
	n := g.N()
	if n > math.MaxInt32 || 2*g.M() > math.MaxInt32 {
		return fmt.Errorf("rg: graph with %d nodes and %d edges exceeds int32 ids", n, g.M())
	}
	if err := st.number(n, nodes); err != nil {
		return err
	}
	st.g = g
	st.b = labelBits(n)
	st.delta = eps / (2 * float64(st.b))
	st.buildAdjacency(nodes)

	ns := len(st.host)
	st.label = resize(st.label, ns)
	st.clusters = resize(st.clusters, ns)
	st.pos = resize(st.pos, ns)
	st.depth = resize(st.depth, ns)
	st.nstat = resize(st.nstat, ns)
	st.best = resize(st.best, ns)
	st.propCount = resize(st.propCount, ns)
	st.stat = resize(st.stat, ns+1)
	for v := range st.label {
		st.label[v] = int32(v)
		st.clusters[v] = clusterInfo{size: 1, treeSize: 1}
		st.best[v] = math.MaxUint64
	}
	clear(st.pos)
	clear(st.depth)
	clear(st.propCount)
	st.stat[0] = statDead
	// Every candidate and proposal list holds each node of S at most once,
	// so capacity |S| is final. The attach log holds the live trees plus
	// one phase's attachments, which rarely reach 2|S|.
	st.activeBlue = reserve(st.activeBlue, ns)
	st.props = reserve(st.props, ns)
	st.grouped = reserve(st.grouped, ns)
	st.propLabels = reserve(st.propLabels, ns)
	st.propEnds = reserve(st.propEnds, ns)
	st.attaches = reserve(st.attaches, 2*ns)
	return nil
}

// number fills st.host with the carved set in ascending order, checking
// that nodes holds distinct ids in [0, n).
func (st *state) number(n int, nodes []int) error {
	if nodes == nil {
		st.host = resize(st.host, n)
		for v := range st.host {
			st.host[v] = int32(v)
		}
		return nil
	}
	st.host = st.host[:0]
	sorted := true
	for i, v := range nodes {
		if v < 0 || v >= n {
			return fmt.Errorf("rg: nodes[%d] = %d outside [0, %d)", i, v, n)
		}
		if i > 0 && v <= nodes[i-1] {
			sorted = false
		}
		st.host = append(st.host, int32(v))
	}
	if !sorted {
		slices.Sort(st.host)
		for i := 1; i < len(st.host); i++ {
			if st.host[i] == st.host[i-1] {
				return fmt.Errorf("rg: node %d appears twice in nodes", st.host[i])
			}
		}
	}
	return nil
}

// buildAdjacency builds the int32 CSR of G[S] and the seeding order. Host
// neighbor lists are ascending and local numbering is monotone, so local
// neighbor lists are ascending too. When S is all of g, local ids are host
// ids and no lookup table is needed.
func (st *state) buildAdjacency(nodes []int) {
	ns := len(st.host)
	full := ns == st.g.N()
	degrees := 2 * st.g.M()
	if !full {
		if len(st.loc) < st.g.N() {
			st.loc = make([]int32, st.g.N())
			for v := range st.loc {
				st.loc[v] = -1
			}
		}
		degrees = 0
		for i, v := range st.host {
			st.loc[v] = int32(i)
			degrees += st.g.Degree(int(v))
		}
	}
	st.adjOff = resize(st.adjOff, ns+1)
	st.adj = reserve(st.adj, degrees)
	for i, v := range st.host {
		st.adjOff[i] = int32(len(st.adj))
		for _, w := range st.g.Neighbors(int(v)) {
			if full {
				st.adj = append(st.adj, int32(w))
			} else if lw := st.loc[w]; lw >= 0 {
				st.adj = append(st.adj, lw)
			}
		}
	}
	st.adjOff[ns] = int32(len(st.adj))

	st.seed = resize(st.seed, ns)
	switch {
	case nodes == nil:
		copy(st.seed, st.host)
	case full:
		for i, v := range nodes {
			st.seed[i] = int32(v)
		}
	default:
		for i, v := range nodes {
			st.seed[i] = st.loc[v]
		}
	}
	if !full {
		for _, v := range st.host {
			st.loc[v] = -1
		}
	}
}

// release returns st to the pool without its graph, unless its carved set
// was too large to keep (see maxPooledNodes). The host->local table is
// sized by the host graph, not by S, so a small carve of a large graph
// drops it rather than pool it.
func (st *state) release() {
	st.g = nil
	if len(st.host) <= maxPooledNodes {
		if len(st.loc) > maxPooledNodes {
			st.loc = nil
		}
		statePool.Put(st)
	}
}

// neighbors returns v's neighbor list in G[S].
func (st *state) neighbors(v int32) []int32 {
	return st.adj[st.adjOff[v]:st.adjOff[v+1]]
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
	red, blue := st.paint(phase)
	for n := st.seedProposals(red, blue); n > 0; n = st.collectProposals() {
		m.Charge("rg/propose", 2)
		st.resolveProposals(m)
	}
	// Once per phase: pipelined tree maintenance over congested edges.
	var depth int32
	for _, x := range st.clusters {
		depth = max(depth, x.maxDepth)
	}
	m.Charge("rg/congestion", int64(depth+1)*int64(phase+1))
	st.dropDeadAttaches()
}

// paint rebuilds the status bytes for a phase: a label is red iff bit
// phase of its host id is 1, no cluster has retired yet, and every node
// takes its label's byte. It returns the number of live red and live blue
// nodes.
func (st *state) paint(phase int) (red, blue int) {
	var live [2]int // by colour
	for l, v := range st.host {
		c := byte(v>>phase) & statRed
		st.stat[l+1] = c
		live[c] += int(st.clusters[l].size)
	}
	for v, l := range st.label {
		st.nstat[v] = st.stat[l+1]
	}
	return live[statRed], live[0]
}

// seedProposals computes a phase's first proposals from its painted state
// and returns their count. Every live blue node with a live red neighbour
// proposes, in seed order, and becomes a candidate; the rest are not
// candidates until a neighbour joins a red cluster. It works from the side
// with fewer live nodes: blue nodes pull (pullSeed) when red has at least
// as many, red nodes push (pushSeed) otherwise, and a phase without a red
// or without a blue node can make no proposal at all. Pull and push give
// the same proposals in the same order, so the choice changes only the
// work done.
func (st *state) seedProposals(red, blue int) int {
	st.props = st.props[:0]
	switch {
	case red == 0 || blue == 0:
	case red >= blue:
		st.pullSeed()
	default:
		st.pushSeed()
	}
	st.groupProposals()
	return len(st.props)
}

// pullSeed seeds a phase by scanning the neighbours of every live blue
// node, in seed order, exactly as a later step scans its candidates.
//
//sdlint:hotpath
func (st *state) pullSeed() {
	for _, v := range st.seed {
		if st.nstat[v] != 0 {
			continue
		}
		if key := st.bestKey(v); key != math.MaxUint64 {
			st.propose(v, key)
		}
	}
}

// pushSeed seeds a phase from the red side: every live red node lowers
// best[w] to its own key for each neighbour w, whatever w's colour, and
// one pass over seed then turns the key of each live blue node into its
// proposal and resets best. It is exact only at phase start: no cluster
// has retired yet, so the smallest key among a node's red neighbours is
// the smallest among its open red neighbours, which is what bestKey
// returns. Walking seed keeps the proposals in pullSeed's order.
//
//sdlint:hotpath
func (st *state) pushSeed() {
	for u, s := range st.nstat {
		if s != statRed {
			continue
		}
		key := uint64(uint32(st.label[u]))<<32 | uint64(uint32(u))
		for _, w := range st.neighbors(int32(u)) {
			st.best[w] = min(st.best[w], key)
		}
	}
	for _, v := range st.seed {
		key := st.best[v]
		st.best[v] = math.MaxUint64
		if key != math.MaxUint64 && st.nstat[v] == 0 {
			st.propose(v, key)
		}
	}
}

// bestKey returns v's proposal as a packed (label, via) key: the smallest
// label among v's neighbours in open (red, not retired) clusters, and
// within it the smallest neighbour id. It returns MaxUint64 when v has no
// open red neighbour. The scan is branch-free: it forces a neighbour's key
// to the maximum when its cluster is not open and keeps the minimum.
//
//sdlint:hotpath
func (st *state) bestKey(v int32) uint64 {
	best := uint64(math.MaxUint64)
	for _, u := range st.neighbors(v) {
		lu := st.label[u]
		key := uint64(uint32(lu))<<32 | uint64(uint32(u))
		if st.stat[lu+1] != statRed {
			key = math.MaxUint64
		}
		best = min(best, key)
	}
	return best
}

// propose records the live blue node v's proposal for a packed key and
// keeps v a candidate for the next step.
//
//sdlint:hotpath
func (st *state) propose(v int32, key uint64) {
	st.props = append(st.props, proposal{label: int32(key >> 32), node: v, via: int32(uint32(key))})
	st.activeBlue = append(st.activeBlue, v)
	st.nstat[v] = statActive
}

// collectProposals computes a later step's proposals: every candidate that
// is still live and blue proposes its bestKey, and the rest leave the
// candidate set. The proposals are bucketed by label into the reusable
// grouped/propLabels scratch (counting scatter — no per-step map) and
// their count is returned.
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
func (st *state) collectProposals() int {
	cands := st.activeBlue
	st.activeBlue = cands[:0] // refilled in place by propose
	st.props = st.props[:0]
	for _, v := range cands {
		if st.nstat[v] != statActive {
			st.nstat[v] &^= statActive // joined a red cluster or died
			continue
		}
		key := st.bestKey(v)
		if key == math.MaxUint64 {
			// No live red neighbor, or all adjacent red clusters retired:
			// the node is asked again this phase only if a neighbor joins a
			// live red cluster, which re-adds it.
			st.nstat[v] = 0
			continue
		}
		st.propose(v, key)
	}
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
	var start int32
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
	var maxDepth int32
	for _, l := range st.propLabels {
		maxDepth = max(maxDepth, st.clusters[l].maxDepth)
	}
	m.Charge("rg/aggregate", 2*int64(maxDepth+1))
	m.ChargeMessages(int64(len(st.propLabels)))

	var start int32
	for i, l := range st.propLabels {
		x := &st.clusters[l]
		ps := st.grouped[start:st.propEnds[i]]
		start = st.propEnds[i]
		if float64(len(ps)) >= st.delta*float64(x.size) {
			st.accept(x, l, ps)
		} else {
			st.stat[l+1] |= statRetired
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
func (st *state) accept(x *clusterInfo, l int32, ps []proposal) {
	for _, p := range ps {
		v, via := p.node, p.via
		if st.label[via] != l {
			treeInvariantBroken(int(st.host[l]), int(st.host[via]))
		}
		st.clusters[st.label[v]].size--
		st.label[v] = l
		st.nstat[v] |= statRed
		x.size++
		st.attaches = append(st.attaches, attach{label: l, node: v, parent: st.pos[via]})
		st.pos[v] = x.treeSize
		x.treeSize++
		d := st.depth[via] + 1
		st.depth[v] = d
		x.maxDepth = max(x.maxDepth, d)
		// Live blue neighbors of the newly red node become candidates, in
		// first-push order.
		for _, w := range st.neighbors(v) {
			if st.nstat[w] == 0 {
				st.nstat[w] = statActive
				st.activeBlue = append(st.activeBlue, w)
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

func (st *state) kill(v int32) {
	st.clusters[st.label[v]].size--
	st.label[v] = -1
	st.nstat[v] |= statDead
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
// Local ids are ascending in host id, so ascending label order IS sorted
// host label order; the label-to-dense-id table is one flat slice, not a
// map. The surviving clusters' trees are cut from shared slabs
// (capacity-capped, so an Attach on one tree reallocates instead of
// overwriting the next) and filled by one replay of the attach log, which
// after the last phase holds only the surviving clusters' attachments (see
// dropDeadAttaches).
func (st *state) carving() *cluster.Carving {
	assign := make([]int, st.g.N())
	for v := range assign {
		assign[v] = cluster.Unclustered
	}
	st.id = resize(st.id, len(st.clusters))
	var k, total int32
	for l, x := range st.clusters {
		if x.size > 0 {
			st.id[l] = k
			k++
			total += x.treeSize
		}
	}
	centers := make([]int, k)
	trees := make([]*cluster.Tree, k)
	headers := make([]cluster.Tree, k)
	nodeSlab, parentSlab := make([]int, total), make([]int, total)
	var lo int32
	for l, x := range st.clusters {
		if x.size <= 0 {
			continue
		}
		hi := lo + x.treeSize
		root := int(st.host[l])
		nodeSlab[lo], parentSlab[lo] = root, -1
		t := &headers[st.id[l]]
		*t = cluster.Tree{Root: root, Nodes: nodeSlab[lo : lo+1 : hi], Parent: parentSlab[lo : lo+1 : hi]}
		centers[st.id[l]], trees[st.id[l]] = root, t
		lo = hi
	}
	for _, a := range st.attaches {
		trees[st.id[a.label]].Attach(int(st.host[a.node]), int(a.parent))
	}
	for v, l := range st.label {
		if l >= 0 {
			assign[st.host[v]] = int(st.id[l])
		}
	}
	return &cluster.Carving{Assign: assign, K: int(k), Centers: centers, Trees: trees}
}
