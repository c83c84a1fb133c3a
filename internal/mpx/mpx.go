// Package mpx implements the randomized strong-diameter constructions based
// on exponential random shifts by Miller, Peng, and Xu [MPX13], in the form
// used by Elkin and Neiman [EN16]: a strong-diameter ball carving with
// clusters of diameter O(log n / ε) in O(log n / ε) rounds, and, by the
// standard iteration (core.DecomposeContext), a strong-diameter network
// decomposition with O(log n) colors and O(log n) diameter in O(log² n)
// rounds — the Elkin–Neiman row of Table 1. These populate the
// "Strong / Randomized" rows of the paper's Tables 1 and 2.
//
// Every node u draws a shift δ_u ~ Exp(β) and the nodes race: v joins the
// cluster of the u minimizing d(u,v) − δ_u. A node dies iff the best
// arrival from a different cluster is within 1 of its winner (the corridor
// rule), which simultaneously guarantees that surviving clusters are
// non-adjacent and that each survivor keeps its whole shortest path to the
// winning center alive — hence the diameter guarantee is strong.
package mpx

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// maxCarveAttempts bounds the Las Vegas retry loop on the dead fraction.
const maxCarveAttempts = 40

// CarveContext computes a strong-diameter ball carving of the subgraph
// induced by nodes (nil = all of g), removing at most an eps fraction of
// them. The surviving clusters are non-adjacent, connected, and have strong
// diameter O(log n / eps) with high probability. Cancellation is observed
// between Las Vegas attempts.
func CarveContext(ctx context.Context, g *graph.Graph, nodes []int, eps float64, rng *rand.Rand, m *rounds.Meter) (*cluster.Carving, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("mpx: eps %v outside (0, 1]", eps)
	}
	if nodes == nil {
		nodes = make([]int, g.N())
		for i := range nodes {
			nodes[i] = i
		}
	}
	if len(nodes) == 0 {
		return emptyCarving(g.N()), nil
	}
	// The corridor rule kills a node with probability at most
	// 1 - e^{-β·2} ≈ 2β, so β = eps/4 targets an expected dead fraction
	// below eps; the retry loop makes the bound deterministic.
	beta := eps / 4
	for attempt := 0; attempt < maxCarveAttempts; attempt++ {
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		c := carveOnce(g, nodes, beta, rng, m)
		if c.DeadFraction(nodes) <= eps+1.0/float64(len(nodes)) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("mpx: carving failed to meet eps=%v after %d attempts", eps, maxCarveAttempts)
}

type arrival struct {
	time   float64
	source int
	node   int
}

type arrivalHeap []arrival

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].source < h[j].source // deterministic tie-break
}
func (h arrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x interface{}) { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// carveOnce runs one shifted race. It tracks the best two arrivals with
// distinct sources per node; the winner defines the cluster, and the
// runner-up defines the corridor rule.
func carveOnce(g *graph.Graph, nodes []int, beta float64, rng *rand.Rand, m *rounds.Meter) *cluster.Carving {
	n := g.N()
	inS := make([]bool, n)
	for _, v := range nodes {
		inS[v] = true
	}
	shift := make([]float64, n)
	maxShift := 0.0
	for _, v := range nodes {
		shift[v] = rng.ExpFloat64() / beta
		if shift[v] > maxShift {
			maxShift = shift[v]
		}
	}

	const unset = math.MaxFloat64
	best := make([]arrival, n)
	second := make([]arrival, n)
	for i := range best {
		best[i] = arrival{time: unset, source: -1}
		second[i] = arrival{time: unset, source: -1}
	}
	h := &arrivalHeap{}
	for _, v := range nodes {
		heap.Push(h, arrival{time: -shift[v], source: v, node: v})
	}
	maxDist := 0.0
	for h.Len() > 0 {
		a := heap.Pop(h).(arrival)
		v := a.node
		if a.source == best[v].source || a.source == second[v].source {
			continue
		}
		switch {
		case a.time < best[v].time ||
			(a.time == best[v].time && a.source < best[v].source):
			second[v] = best[v]
			best[v] = arrival{time: a.time, source: a.source}
		case second[v].time == unset ||
			a.time < second[v].time ||
			(a.time == second[v].time && a.source < second[v].source):
			second[v] = arrival{time: a.time, source: a.source}
		default:
			continue // dominated: neither best nor second
		}
		if d := a.time + shift[a.source]; d > maxDist {
			maxDist = d
		}
		// Relax only if this arrival is one of the two kept; a node forwards
		// at most two race fronts, keeping the CONGEST simulation honest.
		for _, w := range g.Neighbors(v) {
			if inS[w] {
				heap.Push(h, arrival{time: a.time + 1, source: a.source, node: w})
			}
		}
	}
	// The race finishes within ceil(maxShift) + ceil(maxDist) synchronous
	// rounds in the delayed-start CONGEST implementation.
	m.Charge("mpx/race", int64(math.Ceil(maxShift)+math.Ceil(maxDist))+1)
	m.ChargeMessages(2 * int64(g.M()))

	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	members := make(map[int][]int)
	for _, v := range nodes {
		if best[v].source < 0 {
			continue
		}
		if second[v].source >= 0 && second[v].time-best[v].time <= 1 {
			continue // corridor node: removed
		}
		members[best[v].source] = append(members[best[v].source], v)
	}
	centers := make([]int, 0, len(members))
	for u := range members {
		centers = append(centers, u)
	}
	sort.Ints(centers)
	for i, u := range centers {
		for _, v := range members[u] {
			assign[v] = i
		}
	}
	return &cluster.Carving{Assign: assign, K: len(centers), Centers: centers}
}

func emptyCarving(n int) *cluster.Carving {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	return &cluster.Carving{Assign: assign}
}
