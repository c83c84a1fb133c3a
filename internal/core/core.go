// Package core implements the paper's contributions:
//
//   - Theorem 2.1: a message-efficient deterministic transformation turning
//     any weak-diameter ball carving algorithm A into a strong-diameter ball
//     carving algorithm B (StrongCarveContext);
//   - Theorem 2.2: its instantiation with the deterministic weak carver of
//     internal/rg (CarveRGContext);
//   - Theorem 2.3: the strong-diameter network decomposition obtained by
//     log n repetitions of ball carving with ε = 1/2 (DecomposeContext, the
//     one colour loop every registered construction runs, and its RG
//     instantiation DecomposeRGContext);
//   - Lemma 3.1: the balanced-sparse-cut-or-large-small-diameter-component
//     subroutine (CutOrComponent);
//   - Theorem 3.2: the diameter-improvement transformation
//     (ImproveDiameterContext);
//   - Theorems 3.3/3.4: their instantiations (CarveImprovedContext,
//     DecomposeImprovedContext) achieving strong diameter O(log² n / ε).
//
// All algorithms are deterministic, operate on the subgraph induced by a
// node subset of a host graph, observe cancellation through their context,
// and charge their distributed cost to an optional rounds.Meter using the
// cost model described in DESIGN.md.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rg"
	"strongdecomp/internal/rounds"
)

// WeakCarver is the black-box algorithm A of Theorem 2.1: it removes at most
// an eps fraction of nodes and clusters the remainder into non-adjacent
// clusters, each with a bounded-depth Steiner tree in the host graph.
type WeakCarver func(g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error)

// CtxStrongCarver is the contract of algorithm B: it removes at most an
// eps fraction of nodes so that every remaining connected component
// (cluster) has bounded strong diameter. Cancellation is observed between
// carving iterations.
type CtxStrongCarver func(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error)

// collector accumulates emitted clusters over the iterative process.
type collector struct {
	assign  []int
	centers []int
	k       int
}

func newCollector(n int) *collector {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	return &collector{assign: assign}
}

func (co *collector) emit(members []int, center int) {
	for _, v := range members {
		co.assign[v] = co.k
	}
	co.close(center)
}

// close ends cluster co.k, whose members the caller has assigned.
func (co *collector) close(center int) {
	co.centers = append(co.centers, center)
	co.k++
}

func (co *collector) carving() *cluster.Carving {
	return &cluster.Carving{Assign: co.assign, K: co.k, Centers: co.centers}
}

// StrongCarveContext is the Theorem 2.1 transformation. Given the black-box
// weak carver A, it computes a strong-diameter ball carving of the subgraph
// induced by nodes (nil = all of g) that removes at most an eps fraction of
// the nodes. Every emitted cluster is connected with strong diameter at most
// 2·R + O(log n / eps), where R is the realized Steiner-tree depth of A when
// invoked with boundary parameter eps / (2·ceil(log₂ n)).
//
// The algorithm runs ceil(log₂ n) iterations per surviving component. Each
// iteration invokes A with the reduced boundary parameter. If some cluster C
// is giant (larger than n/2^i), a BFS from the root of C's Steiner tree
// grows a ball, starting at C's tree depth, until a radius r* whose boundary
// shell holds at most an eps/2 fraction of the ball; the ball is emitted as
// a final cluster and the shell dies. Otherwise A's unclustered nodes die.
// Either way every surviving component halves, so log n iterations suffice.
//
// The context is checked before every component task, so a canceled run
// stops within one weak-carver invocation and returns registry.ErrCanceled.
// The loop's working state comes from the Scratch ctx carries (see
// WithScratch), and every pass over a component touches only that
// component, so a task costs O(|S| + vol(S)) beyond the weak carver.
// Components are processed one iteration at a time: the tasks of
// iteration i are disjoint subsets of the carved set, as are their
// survivor components, which form the tasks of iteration i+1.
func StrongCarveContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, weak WeakCarver, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: eps %v outside (0, 1]", eps)
	}
	if nodes == nil {
		nodes = allNodes(g.N())
	}
	co := newCollector(g.N())
	if len(nodes) == 0 {
		return co.carving(), nil
	}

	total := len(nodes)
	iterLimit := log2ceil(total) + 1
	epsWeak := eps / (2 * float64(log2ceil(total)))
	window := shellWindow(total, eps)
	congestion := log2ceil(g.N())

	sc, connected := scratchOf(ctx)
	if sc == nil {
		sc = NewScratch()
	}
	set := sortedSet(nodes)
	cur, next := sc.startLevels()
	if connected == g && len(set) == g.N() {
		// The caller already split g: all of it is one component.
		cur.comps = append(cur.comps, set)
	} else {
		sc.MarkSet(g.N(), set)
		sc.splitInto(g, set, cur)
	}

	for iter := 1; len(cur.comps) > 0; iter++ {
		for _, s := range cur.comps {
			if err := registry.CtxErr(ctx); err != nil {
				return nil, err
			}
			if len(s) == 1 || iter > iterLimit {
				// A component above iterLimit is unreachable by the
				// halving invariant; emit it whole so the output stays a
				// valid clustering.
				co.emit(s, s[0])
				continue
			}

			weakCarving, err := weak(g, s, epsWeak, m)
			if err != nil {
				return nil, fmt.Errorf("core: weak carver: %w", err)
			}
			sizes := sc.clusterSizes(weakCarving, s)

			// Information gathering over Steiner trees to find cluster
			// sizes: depth x congestion rounds.
			maxDepth := 0
			for cl := range sizes {
				if tr := weakCarving.Trees[cl]; tr != nil {
					d, _ := sc.treeDepth(tr, nil, cl)
					maxDepth = max(maxDepth, d)
				}
			}
			m.Charge("thm21/gather", int64(maxDepth+1)*int64(congestion))

			threshold := float64(total) / math.Exp2(float64(iter))
			giant := -1
			for cl, size := range sizes {
				if float64(size) > threshold {
					giant = cl
					break
				}
			}

			if giant < 0 {
				// Case (I): commit A's removals; recurse on survivor
				// components.
				sc.BeginSet(g.N())
				for _, v := range s {
					if weakCarving.Assign[v] != cluster.Unclustered {
						sc.Add(v)
					}
				}
				sc.splitInto(g, s, next)
				continue
			}

			// Case (II): grow a ball from the giant cluster's tree root
			// inside G[S]; A's removals are NOT committed (the ball may
			// swallow them).
			root := weakCarving.Centers[giant]
			_, depthR := sc.treeDepth(weakCarving.Trees[giant], weakCarving.Assign, giant)
			sc.MarkSet(g.N(), s)
			layers := sc.Layers(g, []int{root})
			maxLayer := len(layers) - 1
			rStart := min(depthR, maxLayer)
			rStar := rStart
			for r := rStart; r < maxLayer && r < rStart+window; r++ {
				if float64(layers[r]) >= (1-eps/2)*float64(sizeAt(layers, r+1)) {
					rStar = r
					break
				}
				rStar = r + 1
			}
			m.Charge("thm21/bfs", int64(rStar)+2)

			// The ball is emitted, its shell dies, and the rest survives.
			sc.BeginSet(g.N())
			survivors := 0
			for _, v := range s {
				switch d := sc.Val(v); {
				case sc.Reached(v) && d <= rStar:
					co.assign[v] = co.k
				case sc.Reached(v) && d == rStar+1:
				default:
					sc.Add(v)
					survivors++
				}
			}
			co.close(root)
			if survivors > 0 {
				sc.splitInto(g, s, next)
			}
		}
		cur, next = next, cur
		next.slab, next.comps = next.slab[:0], next.comps[:0]
	}
	return co.carving(), nil
}

// clusterSizes counts the members of each of c's clusters within s, where
// a carving of s places all of its clustered nodes. The result aliases the
// scratch.
func (sc *Scratch) clusterSizes(c *cluster.Carving, s []int) []int {
	sizes := resize(sc.counts, c.K)
	clear(sizes)
	for _, v := range s {
		if cl := c.Assign[v]; cl != cluster.Unclustered {
			sizes[cl]++
		}
	}
	sc.counts = sizes[:0]
	return sizes
}

// CarveRGContext is Theorem 2.2: StrongCarveContext instantiated with the
// deterministic weak-diameter carver of internal/rg.
func CarveRGContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, m *rounds.Meter) (*cluster.Carving, error) {
	return StrongCarveContext(ctx, g, nodes, eps, rg.Carve, m)
}

// DecomposeContext is the standard reduction from network decomposition to
// ball carving used by Theorems 2.3 and 3.4: repeat the carver with
// eps = 1/2 on the remaining nodes; clusters found in iteration i receive
// color i. A deterministic carver yields at most ceil(log₂ n) + 1 colors.
// It is the one colour loop: every registered construction's decomposition
// runs it with its own carver, so all of them share its convergence guard,
// which fails a run that has not clustered every node after
// 4·(ceil(log₂ n) + 2) colors.
//
// Cancellation is observed before every color iteration and inside
// context-aware carvers. The uncolored nodes are kept in the Scratch ctx
// carries (see WithScratch), which the carver shares; the carver must not
// retain the node slice it is handed.
func DecomposeContext(ctx context.Context, g *graph.Graph, carver CtxStrongCarver, m *rounds.Meter) (*cluster.Decomposition, error) {
	ctx, sc := withScratch(ctx)
	n := g.N()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	var (
		color   []int
		centers []int
		k       int
	)
	remaining, rest := resize(sc.rest[0], n), sc.rest[1][:0]
	for v := range remaining {
		remaining[v] = v
	}
	for iter := 0; len(remaining) > 0; iter++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		if iter > 4*(log2ceil(n)+2) {
			return nil, fmt.Errorf("core: decomposition did not converge after %d colors", iter)
		}
		c, err := carver(ctx, g, remaining, 0.5, m)
		if err != nil {
			return nil, err
		}
		// A carving of the remaining nodes clusters only remaining
		// nodes, so one ascending pass over them numbers every cluster
		// and finds the smallest member, the center of a carving that
		// reports none.
		hasCenters := len(c.Centers) == c.K
		base := len(centers)
		for i := 0; i < c.K; i++ {
			color = append(color, iter)
			if hasCenters {
				centers = append(centers, c.Centers[i])
			} else {
				centers = append(centers, -1)
			}
		}
		rest = rest[:0]
		for _, v := range remaining {
			cl := c.Assign[v]
			if cl == cluster.Unclustered {
				rest = append(rest, v)
				continue
			}
			assign[v] = k + cl
			if centers[base+cl] < 0 {
				centers[base+cl] = v
			}
		}
		for i := base; i < len(centers); i++ {
			if centers[i] < 0 { // an empty cluster
				centers[i] = i - base
			}
		}
		k += c.K
		remaining, rest = rest, remaining
	}
	sc.rest[0], sc.rest[1] = remaining[:0], rest[:0]
	colors := 0
	for _, col := range color {
		if col+1 > colors {
			colors = col + 1
		}
	}
	return &cluster.Decomposition{Assign: assign, Color: color, K: k, Colors: colors, Centers: centers}, nil
}

// DecomposeRGContext is Theorem 2.3: a deterministic strong-diameter
// network decomposition with O(log n) colors and O(log³ n) cluster diameter.
func DecomposeRGContext(ctx context.Context, g *graph.Graph, m *rounds.Meter) (*cluster.Decomposition, error) {
	return DecomposeContext(ctx, g, CarveRGContext, m)
}

// shellWindow returns the number of radius growth steps that guarantees a
// thin shell: growing by a factor 1/(1-eps/2) more than window times would
// exceed n nodes.
func shellWindow(n int, eps float64) int {
	growth := -math.Log(1 - eps/2)
	w := int(math.Ceil(math.Log(float64(n))/growth)) + 1
	if w < 2 {
		w = 2
	}
	return w
}

func sizeAt(sizes []int, r int) int {
	if r >= len(sizes) {
		return sizes[len(sizes)-1]
	}
	return sizes[r]
}

func maskOf(n int, nodes []int) []bool {
	mask := make([]bool, n)
	for _, v := range nodes {
		mask[v] = true
	}
	return mask
}

func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
