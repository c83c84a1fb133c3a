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
	return carve(g, nodes, eps, m, graph.ParallelConfig{})
}

// CarveParallel is Carve with frontier-parallel phase scans: when cfg
// enables parallelism for the carved set's size, the two embarrassingly
// parallel read-only scans of each step — seeding the proposer candidate
// set and computing every candidate's best (label, via) choice — are
// chunked across cfg.Workers goroutines. All state mutation (proposal
// resolution, acceptance, tree growth) stays sequential, so the carving
// is bit-identical to Carve's: the parallel scans fill position-indexed
// slots that a sequential merge consumes in the exact order the
// sequential loop would have produced. Round-complexity charges to m are
// likewise identical — parallelism is a wall-clock optimization, not a
// model change.
func CarveParallel(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter, cfg graph.ParallelConfig) (*cluster.Carving, error) {
	return carve(g, nodes, eps, m, cfg)
}

func carve(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter, cfg graph.ParallelConfig) (*cluster.Carving, error) {
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
	if cfg.Enabled(len(nodes)) {
		st.workers = cfg.Workers
	}
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
	retired  bool
}

// attach is one tree attachment: node joined cluster label's tree as a
// child of the node at index parent of that tree. A cluster's attachments
// appear in the log in tree-index order.
type attach struct {
	label, node, parent int
}

// propSlot is one candidate's result from a parallel collect scan,
// indexed by the candidate's position in activeBlue. label -1 means the
// candidate found no live non-retired red cluster (or died / turned red)
// and drops out of the active set at merge time.
type propSlot struct {
	label int
	via   int
}

type state struct {
	g       *graph.Graph
	b       int
	delta   float64
	workers int // >1 enables the frontier-parallel phase scans

	nodes    []int // the carved set S; every cluster label is one of these
	inS      []bool
	alive    []bool
	label    []int         // current cluster label, -1 for dead / outside S
	clusters []clusterInfo // indexed by label; meaningful only for labels in S

	// Steiner trees: attaches logs every tree attachment of the run, and
	// pos[v] is v's index in its current cluster's tree, depth[v] its hop
	// distance from that tree's root. A node that has never moved is the
	// root of its own singleton cluster (index 0, depth 0).
	attaches []attach
	pos      []int
	depth    []int

	activeBlue []int      // candidate proposers, maintained incrementally
	inActive   []bool     // membership mask for activeBlue
	slots      []propSlot // parallel collect results, one per activeBlue index

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
		inS:       make([]bool, n),
		alive:     make([]bool, n),
		label:     make([]int, n),
		clusters:  make([]clusterInfo, n),
		pos:       make([]int, n),
		depth:     make([]int, n),
		inActive:  make([]bool, n),
		propCount: make([]int, n),
	}
	for v := range st.label {
		st.label[v] = -1
	}
	for _, v := range nodes {
		st.inS[v] = true
		st.alive[v] = true
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
		st.clusters[l].retired = false
	}
	if st.workers > 1 {
		st.seedActiveBlueParallel(phase)
	} else {
		st.seedActiveBlue(phase)
	}

	for {
		var pending int
		if st.workers > 1 {
			pending = st.collectProposalsParallel(phase)
		} else {
			pending = st.collectProposals(phase)
		}
		if pending == 0 {
			break
		}
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
}

// seedActiveBlue initializes the proposer candidate set for a phase: every
// live blue node with at least one live red neighbor.
//
//sdlint:hotpath
func (st *state) seedActiveBlue(phase int) {
	st.activeBlue = st.activeBlue[:0]
	for v := range st.inActive {
		st.inActive[v] = false
	}
	for v, ok := range st.alive {
		if !ok || bit(st.label[v], phase) != 0 {
			continue
		}
		for _, u := range st.g.Neighbors(v) {
			if st.alive[u] && bit(st.label[u], phase) == 1 {
				st.addActive(v)
				break
			}
		}
	}
}

// seedActiveBlueParallel computes the same candidate set as
// seedActiveBlue with the per-node test chunked across workers: each
// chunk writes inActive[v] for every v in its range (which doubles as
// the reset the sequential path does up front), then a sequential
// ascending compaction rebuilds activeBlue — the same ascending order
// the sequential scan appends in.
func (st *state) seedActiveBlueParallel(phase int) {
	n := len(st.inActive)
	graph.ForChunks(n, st.workers, func(_, lo, hi int) {
		st.seedScan(phase, lo, hi)
	})
	st.activeBlue = st.activeBlue[:0]
	for v := 0; v < n; v++ {
		if st.inActive[v] {
			st.activeBlue = append(st.activeBlue, v)
		}
	}
}

// seedScan is seedActiveBlueParallel's chunk body: a pure function of
// the (stable during seeding) alive/label arrays, writing only the
// chunk's own inActive range.
//
//sdlint:hotpath
func (st *state) seedScan(phase, lo, hi int) {
	for v := lo; v < hi; v++ {
		active := false
		if st.alive[v] && bit(st.label[v], phase) == 0 {
			for _, u := range st.g.Neighbors(v) {
				if st.alive[u] && bit(st.label[u], phase) == 1 {
					active = true
					break
				}
			}
		}
		st.inActive[v] = active
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
// (node, parent) edges the tree has. Carve and CarveParallel scan in the
// same order, so their trees agree slice for slice.
//
//sdlint:hotpath
func (st *state) collectProposals(phase int) int {
	kept := st.activeBlue[:0]
	st.props = st.props[:0]
	for _, v := range st.activeBlue {
		if !st.alive[v] || bit(st.label[v], phase) != 0 {
			st.inActive[v] = false // joined a red cluster or died
			continue
		}
		bestLabel, bestVia := -1, -1
		for _, u := range st.g.Neighbors(v) {
			if !st.alive[u] || bit(st.label[u], phase) != 1 {
				continue
			}
			lu := st.label[u]
			if st.clusters[lu].retired {
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

// collectProposalsParallel computes the same proposals as
// collectProposals: the per-candidate best-(label, via) search — a
// read-only scan over alive/label/retired, which only resolveProposals
// mutates — is chunked across workers into position-indexed slots, and a
// sequential merge then replays the sequential loop's exact
// keep/drop/append decisions from those slots.
func (st *state) collectProposalsParallel(phase int) int {
	if cap(st.slots) < len(st.activeBlue) {
		st.slots = make([]propSlot, len(st.activeBlue))
	}
	st.slots = st.slots[:len(st.activeBlue)]
	graph.ForChunks(len(st.activeBlue), st.workers, func(_, lo, hi int) {
		st.slotScan(phase, lo, hi)
	})
	kept := st.activeBlue[:0]
	st.props = st.props[:0]
	for i, v := range st.activeBlue {
		if l := st.slots[i].label; l >= 0 {
			st.props = append(st.props, proposal{label: l, node: v, via: st.slots[i].via})
			kept = append(kept, v)
		} else {
			st.inActive[v] = false
		}
	}
	st.activeBlue = kept
	st.groupProposals()
	return len(st.props)
}

// slotScan is collectProposalsParallel's chunk body: candidate i's
// smallest-(label, via) red neighbor, or label -1 when it has none (dead,
// turned red, or all adjacent red clusters retired — the cases the
// sequential loop drops from the active set).
//
//sdlint:hotpath
func (st *state) slotScan(phase, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := st.activeBlue[i]
		sl := &st.slots[i]
		sl.label, sl.via = -1, -1
		if !st.alive[v] || bit(st.label[v], phase) != 0 {
			continue
		}
		for _, u := range st.g.Neighbors(v) {
			if !st.alive[u] || bit(st.label[u], phase) != 1 {
				continue
			}
			lu := st.label[u]
			if st.clusters[lu].retired {
				continue
			}
			if sl.label == -1 || lu < sl.label || (lu == sl.label && u < sl.via) {
				sl.label, sl.via = lu, u
			}
		}
	}
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
			x.retired = true
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
			if st.alive[w] {
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
	st.alive[v] = false
	st.label[v] = -1
}

// carving materializes the final clusters in deterministic label order.
// Labels are node ids, so ascending slice order IS sorted label order; the
// label-to-dense-id table is one flat slice, not a map. The surviving
// clusters' trees are cut from shared slabs (capacity-capped, so an Attach
// on one tree reallocates instead of overwriting the next) and filled by
// one replay of the attach log; attachments to clusters that emptied out
// are skipped.
func (st *state) carving() *cluster.Carving {
	assign := make([]int, st.g.N())
	for v := range assign {
		assign[v] = cluster.Unclustered
	}
	k, total := 0, 0
	id := make([]int, len(st.clusters))
	for l := range st.clusters {
		if st.inS[l] && st.clusters[l].size > 0 {
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
		if !st.inS[l] || st.clusters[l].size <= 0 {
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
		if st.clusters[a.label].size > 0 {
			trees[id[a.label]].Attach(a.node, a.parent)
		}
	}
	for v, ok := range st.alive {
		if ok {
			assign[v] = id[st.label[v]]
		}
	}
	return &cluster.Carving{Assign: assign, K: k, Centers: centers, Trees: trees}
}
