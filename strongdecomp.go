// Package strongdecomp is a Go implementation of "Strong-Diameter Network
// Decomposition" (Chang and Ghaffari, PODC 2021): deterministic
// CONGEST-model algorithms that partition a graph into O(log n) color
// classes of non-adjacent, low-diameter clusters, built from a novel
// transformation of weak-diameter ball carvings into strong-diameter ones.
//
// The package exposes two top-level operations:
//
//   - BallCarve removes at most an ε fraction of nodes and clusters the rest
//     into non-adjacent clusters of small strong (induced) diameter
//     (Theorems 2.2 and 3.3 of the paper);
//   - Decompose partitions all nodes into colored clusters such that
//     same-color clusters are non-adjacent (Theorems 2.3 and 3.4).
//
// Both default to the paper's deterministic algorithms and can be switched
// to the classical randomized or sequential baselines via options, which is
// what the benchmark harness uses to regenerate the paper's comparison
// tables. Under the hood every construction is a named entry in a pluggable
// algorithm registry (Register, Lookup, Algorithms) exposing context-aware
// Carve/Decompose methods, and the Engine type runs registered
// constructions over a worker pool with per-component parallelism, batching,
// and cancellation. See DESIGN.md for the architecture and EXPERIMENTS.md
// for the experiment index.
//
// # The v2 Params API
//
// The canonical way to describe a run is one Params value — algorithm
// name, kind (KindCarve or KindDecompose), eps, seed, node restriction,
// and meter opt-in — executed with Run, or with Engine.Run on a shared
// engine. Both take the same path: the connected components of the graph
// are decomposed concurrently and merged, as they run simultaneously in
// the distributed model:
//
//	out, err := strongdecomp.Run(ctx, g, strongdecomp.Params{
//		Algorithm: "chang-ghaffari-improved",
//		Kind:      strongdecomp.KindCarve,
//		Eps:       0.25,
//		Seed:      7,
//	})
//
// Params is the single source of request defaults (Normalized), request
// validation (Validate), and cache identity (Key): the serving layer in
// internal/service addresses its result cache with the same canonical
// byte encoding that validates a CLI flag set or an HTTP body. The
// functional options below (WithAlgorithmName, WithSeed, ...) remain as
// thin shims that resolve into a Params and run the same way.
//
// A minimal example:
//
//	g, _ := strongdecomp.NewGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
//	d, _ := strongdecomp.Decompose(g)
//	for v := 0; v < 4; v++ {
//		fmt.Println(v, d.Assign[v], d.NodeColor(v))
//	}
package strongdecomp

import (
	"context"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/engine"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"

	// The algorithm packages self-register their constructions with the
	// registry at init time; the blank imports make every construction
	// reachable through Lookup as soon as this package is imported.
	_ "strongdecomp/internal/core"
	_ "strongdecomp/internal/ls"
	_ "strongdecomp/internal/mpx"
	_ "strongdecomp/internal/seqcarve"
)

// Re-exported result and bookkeeping types. Graph values are constructed
// through this package's constructors and generators.
type (
	// Graph is an immutable simple undirected graph on nodes 0..N()-1.
	Graph = graph.Graph
	// Carving is a ball-carving result: Assign maps nodes to clusters,
	// with Unclustered for removed nodes.
	Carving = cluster.Carving
	// Decomposition is a colored clustering of all nodes.
	Decomposition = cluster.Decomposition
	// Meter accumulates simulated CONGEST round costs.
	Meter = rounds.Meter
)

// Unclustered marks removed nodes in a Carving's Assign slice.
const Unclustered = cluster.Unclustered

// options collects the functional options straight into a canonical
// Params; the external meter pointer is the only piece of legacy state
// that is not a Params field (Params carries only the metering opt-in,
// while WithMeter accumulates into a caller-owned Meter).
type options struct {
	p     Params
	meter *rounds.Meter
}

// Option configures BallCarve and Decompose.
type Option interface {
	apply(*options)
}

type algoNameOption string

func (a algoNameOption) apply(o *options) { o.p.Algorithm = string(a) }

// WithAlgorithmName selects the construction by registry name, reaching
// every registered construction — including ones added via Register. See
// Algorithms for the available names.
func WithAlgorithmName(name string) Option { return algoNameOption(name) }

type seedOption int64

func (s seedOption) apply(o *options) { o.p.Seed = int64(s) }

// WithSeed sets the seed for the randomized algorithms (default 1).
func WithSeed(seed int64) Option { return seedOption(seed) }

type meterOption struct{ m *rounds.Meter }

func (m meterOption) apply(o *options) { o.meter = m.m }

// WithMeter attaches a round meter that accumulates the simulated CONGEST
// cost of the run.
func WithMeter(m *Meter) Option { return meterOption{m: m} }

type nodesOption []int

func (ns nodesOption) apply(o *options) { o.p.Nodes = ns }

// WithNodes restricts BallCarve to the subgraph induced by the given nodes.
func WithNodes(nodes []int) Option { return nodesOption(nodes) }

// buildParams folds the options into a canonical Params for the given
// operation, returning the Params and the legacy external meter (if any).
// The facade's historical defaults (DefaultAlgorithm, seed 1) are preserved;
// everything else — kind normalization, eps canonicalization — is
// Params.Normalized's job.
func buildParams(kind Kind, eps float64, opts []Option) (Params, *rounds.Meter) {
	o := options{p: Params{Algorithm: DefaultAlgorithm, Kind: kind, Eps: eps, Seed: 1}}
	for _, opt := range opts {
		opt.apply(&o)
	}
	o.p.Meter = o.meter != nil
	return o.p.Normalized(), o.meter
}

// NewMeter returns an empty round meter for use with WithMeter.
func NewMeter() *Meter { return rounds.NewMeter() }

// NewGraph builds a graph with n nodes from an edge list.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// BallCarve computes a ball carving of g with boundary parameter eps: at
// most an eps fraction of nodes are removed (Assign == Unclustered) and the
// remaining clusters are pairwise non-adjacent with small diameter. The
// default algorithm is the paper's deterministic Theorem 2.2 construction.
// It is a thin shim over Run: the options resolve into one Params, run
// with a background context.
func BallCarve(g *Graph, eps float64, opts ...Option) (*Carving, error) {
	return BallCarveContext(context.Background(), g, eps, opts...)
}

// BallCarveContext is BallCarve with cancellation and deadline support; a
// canceled run returns an error matching ErrCanceled.
func BallCarveContext(ctx context.Context, g *Graph, eps float64, opts ...Option) (*Carving, error) {
	out, err := runOptions(ctx, g, KindCarve, eps, opts)
	if err != nil {
		return nil, err
	}
	return out.Carving, nil
}

// Decompose computes a network decomposition of g: every node is assigned
// to a cluster, clusters are colored, and same-color clusters are
// non-adjacent. The default is the paper's deterministic Theorem 2.3
// construction with O(log n) colors and strong-diameter clusters. It is a
// thin shim over Run, like BallCarve.
func Decompose(g *Graph, opts ...Option) (*Decomposition, error) {
	return DecomposeContext(context.Background(), g, opts...)
}

// DecomposeContext is Decompose with cancellation and deadline support; a
// canceled run returns an error matching ErrCanceled.
func DecomposeContext(ctx context.Context, g *Graph, opts ...Option) (*Decomposition, error) {
	out, err := runOptions(ctx, g, KindDecompose, 0, opts)
	if err != nil {
		return nil, err
	}
	return out.Decomposition, nil
}

// runOptions folds the options into a Params and executes it on a
// per-call Engine, exactly as Run does; a WithMeter meter receives the
// run's cost.
func runOptions(ctx context.Context, g *Graph, kind Kind, eps float64, opts []Option) (*Outcome, error) {
	p, meter := buildParams(kind, eps, opts)
	return engine.RunInto(ctx, NewEngine(), g, p, meter)
}

// VerifyCarving checks the defining properties of a ball carving: dead
// fraction at most eps, cluster non-adjacency, and (when maxDiam >= 0)
// connected clusters of induced diameter at most maxDiam.
func VerifyCarving(g *Graph, c *Carving, eps float64, maxDiam int) error {
	return cluster.CheckCarving(g, nil, c, eps, maxDiam)
}

// VerifyDecomposition checks a decomposition: total assignment, same-color
// non-adjacency, and (when maxDiam >= 0) the diameter bound, measured in the
// induced subgraph when strong is true and in the host graph otherwise.
func VerifyDecomposition(g *Graph, d *Decomposition, maxDiam int, strong bool) error {
	return cluster.CheckDecomposition(g, d, maxDiam, strong)
}

// MaxStrongDiameter returns the maximum induced diameter over the clusters
// of a carving or decomposition member list, or -1 if a cluster induces a
// disconnected subgraph.
func MaxStrongDiameter(g *Graph, members [][]int) int {
	return cluster.MaxStrongDiameter(g, members)
}

// MaxWeakDiameter is MaxStrongDiameter with distances measured in the host
// graph (the weak-diameter notion).
func MaxWeakDiameter(g *Graph, members [][]int) int {
	return cluster.MaxWeakDiameter(g, members)
}

// Generators for the synthetic graph families used by the paper's
// experiments. Random generators are deterministic in their seed.
var (
	// PathGraph returns the n-node path.
	PathGraph = graph.Path
	// CycleGraph returns the n-node cycle.
	CycleGraph = graph.Cycle
	// CompleteGraph returns K_n.
	CompleteGraph = graph.Complete
	// StarGraph returns the n-node star.
	StarGraph = graph.Star
	// GridGraph returns the rows x cols grid.
	GridGraph = graph.Grid
	// TorusGraph returns the rows x cols torus.
	TorusGraph = graph.Torus
	// HypercubeGraph returns the dim-dimensional hypercube.
	HypercubeGraph = graph.Hypercube
	// BinaryTreeGraph returns the n-node binary tree.
	BinaryTreeGraph = graph.BinaryTree
	// RandomTreeGraph returns a random recursive tree.
	RandomTreeGraph = graph.RandomTree
	// GnpGraph returns an Erdős–Rényi G(n, p) graph.
	GnpGraph = graph.Gnp
	// ConnectedGnpGraph returns G(n, p) plus a random Hamiltonian path.
	ConnectedGnpGraph = graph.ConnectedGnp
	// ExpanderGraph returns a random near-d-regular expander.
	ExpanderGraph = graph.RandomRegularish
	// SubdividedExpanderGraph returns the Section 3 barrier construction.
	SubdividedExpanderGraph = graph.SubdividedExpander
	// ClusterGraphGen returns k dense clusters bridged in a ring.
	ClusterGraphGen = graph.ClusterGraph
)
