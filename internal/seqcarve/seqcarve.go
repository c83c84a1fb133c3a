// Package seqcarve implements the classic sequential ball-growing carving of
// [LS93]/[ABCP96] in two roles:
//
//   - CarveContext: the global sequential baseline. Repeatedly grow a ball
//     around the minimum-id live node until a radius r with
//     |B(r+1)| <= 2|B(r)| (r <= log₂ n), emit B(r), and kill the shell;
//     core.DecomposeContext iterates it into a decomposition. As a
//     distributed algorithm this is the "one cluster at a time" strawman
//     whose round complexity scales with the number of clusters — the
//     benchmark harness uses it to show why the paper's parallel
//     transformation wins.
//   - ABCPTransform: the transformation of Awerbuch, Berger, Cowen, and
//     Peleg [ABCP96] that the paper's Section 1.4 recaps: run a weak
//     decomposition on the power graph G^(2d), gather the topology of each
//     cluster's d-neighborhood into its center, carve centrally, and
//     broadcast. It needs messages as large as the gathered topology; the
//     implementation measures that size, reproducing the paper's motivation
//     for a small-message transformation (experiment E5).
package seqcarve

import (
	"context"
	"fmt"
	"math/bits"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// CarveContext computes a strong-diameter ball carving of the subgraph
// induced by nodes (nil = all of g) removing at most half of them — the
// sequential eps = 1/2 growth argument. Cluster diameters are at most
// 2·log₂ n.
//
// Rounds are charged per emitted ball: a BFS of depth r* + 2 plus the O(D)
// coordination to locate the next live minimum-id center, which is what
// makes this baseline slow when there are many clusters. Cancellation is
// observed before every emitted ball; a background context never fails.
func CarveContext(ctx context.Context, g *graph.Graph, nodes []int, m *rounds.Meter) (*cluster.Carving, error) {
	n := g.N()
	if nodes == nil {
		nodes = make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	alive := make([]bool, n)
	for _, v := range nodes {
		alive[v] = true
	}
	dist := make([]int, n)
	var centers []int
	k := 0
	diamApprox := int64(approxDiameter(g, nodes, dist))
	for _, v := range nodes {
		if !alive[v] {
			continue
		}
		if err := registry.CtxErr(ctx); err != nil {
			return nil, err
		}
		// v is the minimum-id live node (nodes scanned in increasing order).
		sizes := graph.NeighborhoodSizes(g, alive, []int{v}, dist)
		rStar := len(sizes) - 1
		for r := 0; r < len(sizes)-1; r++ {
			if 2*sizes[r] >= sizes[r+1] {
				rStar = r
				break
			}
		}
		for w, d := range dist {
			switch {
			case d >= 0 && d <= rStar:
				assign[w] = k
				alive[w] = false
			case d == rStar+1:
				alive[w] = false // shell dies
			}
		}
		centers = append(centers, v)
		k++
		m.Charge("seq/ball", int64(rStar)+2)
		m.Charge("seq/coordinate", diamApprox+1)
	}
	return &cluster.Carving{Assign: assign, K: k, Centers: centers}, nil
}

// ABCPStats reports the message-size behavior of the ABCP96 transformation.
type ABCPStats struct {
	// MaxMessageBits is the largest single message the transformation ships:
	// the serialized topology of a cluster's d-neighborhood. In CONGEST
	// terms this must fit in O(log n) bits; the experiment shows it does not.
	MaxMessageBits int64
	// GatherEdges is the total number of edges gathered to cluster centers.
	GatherEdges int64
	// PowerGraphRounds charges the cost of simulating the weak decomposition
	// on G^(2d) (each power-graph round costs 2d real rounds).
	PowerGraphRounds int64
}

// ABCPTransform runs the [ABCP96] weak-to-strong transformation on g: a weak
// decomposition is computed on the power graph G^(2d) with d = log₂ n (the
// weak decomposition is produced by the supplied decomposer on the power
// graph), then per color every cluster gathers the topology of its
// d-neighborhood and carves strong-diameter balls centrally.
//
// It returns the resulting strong-diameter carving (the first carving layer,
// i.e. the eps = 1/2 ball carving used by the classic construction) together
// with the measured message statistics.
func ABCPTransform(
	g *graph.Graph,
	weakDecompose func(power *graph.Graph, m *rounds.Meter) (*cluster.Decomposition, error),
	m *rounds.Meter,
) (*cluster.Carving, *ABCPStats, error) {
	n := g.N()
	stats := &ABCPStats{}
	if n == 0 {
		return &cluster.Carving{Assign: nil}, stats, nil
	}
	d := log2ceil(n)
	power := graph.PowerGraph(g, 2*d)
	pm := rounds.NewMeter()
	weak, err := weakDecompose(power, pm)
	if err != nil {
		return nil, nil, fmt.Errorf("seqcarve: weak decomposition: %w", err)
	}
	// Every power-graph round is simulated by 2d rounds in G.
	stats.PowerGraphRounds = pm.Rounds() * int64(2*d)
	m.Charge("abcp/power", stats.PowerGraphRounds)

	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Unclustered
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	dist := make([]int, n)
	var centers []int
	k := 0
	idBits := int64(log2ceil(n) + 1)

	for color := 0; color < weak.Colors; color++ {
		for cl, members := range weak.Members() {
			if weak.Color[cl] != color || len(members) == 0 {
				continue
			}
			// Gather the topology of the cluster plus its d-hop
			// neighborhood to the center: the message size is the
			// serialized subgraph (2 ids per edge).
			region := neighborhood(g, members, d, dist)
			edges := int64(0)
			inRegion := make(map[int]bool, len(region))
			for _, v := range region {
				inRegion[v] = true
			}
			for _, v := range region {
				for _, w := range g.Neighbors(v) {
					if v < w && inRegion[w] {
						edges++
					}
				}
			}
			stats.GatherEdges += edges
			if msg := 2 * idBits * edges; msg > stats.MaxMessageBits {
				stats.MaxMessageBits = msg
			}
			m.Charge("abcp/gather", int64(d)+1)

			// Central sequential carving within the gathered region,
			// restricted to live cluster members.
			var live []int
			for _, v := range members {
				if alive[v] {
					live = append(live, v)
				}
			}
			for len(live) > 0 {
				src := live[0]
				sizes := graph.NeighborhoodSizes(g, alive, []int{src}, dist)
				rStar := len(sizes) - 1
				for r := 0; r < len(sizes)-1; r++ {
					if 2*sizes[r] >= sizes[r+1] {
						rStar = r
						break
					}
				}
				for w, dd := range dist {
					switch {
					case dd >= 0 && dd <= rStar:
						assign[w] = k
						alive[w] = false
					case dd == rStar+1:
						alive[w] = false
					}
				}
				centers = append(centers, src)
				k++
				var next []int
				for _, v := range live {
					if alive[v] {
						next = append(next, v)
					}
				}
				live = next
			}
			m.Charge("abcp/broadcast", int64(d)+1)
		}
	}
	return &cluster.Carving{Assign: assign, K: k, Centers: centers}, stats, nil
}

// neighborhood returns all nodes within hop distance d of the member set.
func neighborhood(g *graph.Graph, members []int, d int, dist []int) []int {
	order := graph.BFS(g, nil, members, dist)
	var out []int
	for _, v := range order {
		if dist[v] <= d {
			out = append(out, v)
		}
	}
	return out
}

func approxDiameter(g *graph.Graph, nodes []int, dist []int) int {
	if len(nodes) == 0 {
		return 0
	}
	alive := make([]bool, g.N())
	for _, v := range nodes {
		alive[v] = true
	}
	best := 0
	order := graph.BFS(g, alive, []int{nodes[0]}, dist)
	if len(order) > 0 {
		far := order[len(order)-1]
		order = graph.BFS(g, alive, []int{far}, dist)
		if len(order) > 0 {
			best = dist[order[len(order)-1]]
		}
	}
	return best
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
