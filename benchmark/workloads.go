package main

// Workload catalogue and seeded input generation. The parent process
// derives every input from -seed, writes it to the run's work directory,
// and the child (the measured program) sees only those files and the
// request schedule in spec.json.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
)

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name  string
	serve bool // served through the 2-shard HTTP cluster, else a library closed loop
}

// workloads is the benchmark's fixed roster, in run order.
var workloads = []workload{
	{"decompose-giant", false},
	{"decompose-strips", false},
	{"serve-read", true},
	{"serve-ingest", true},
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// sizes holds every input size and rate. The tiny sizing exists for the
// smoke test; benchmark runs use the full one.
type sizes struct {
	giantN         int
	giantDeg       float64
	strips         int
	stripRows      int
	stripCols      int
	serveGraphs    int // stored graphs of the serve workloads, spread over the four families
	serveMinN      int
	serveMaxN      int
	ingestMinN     int
	ingestMaxN     int
	readRPS        float64
	ingestRPS      float64
	readWarmup     time.Duration // serve-read: untimed traffic before the measured window
	ingestWarmup   time.Duration // serve-ingest: the same; it has no cache to fill
	warmOps        int           // untimed library ops before the measured loop
	librarySetups  int           // LoadGraph repetitions; setup_s is their median
	serveSetups    int           // cluster constructions; setup_s is their median
	decompNewKeys  float64       // serve-read: share of /v1/decompose requests that issue a new cache key
	appNewKeys     float64       // serve-read: share of /v2/apps requests that issue a new cache key
	appShare       float64       // serve-read: share of requests that go to /v2/apps
	zipfExponent   float64       // serve-read: popularity skew over issued keys
	cacheEntries   int           // result and app LRU entries per shard
	requestTimeout time.Duration // client-side bound on one request
}

func sizing(tiny bool) sizes {
	z := sizes{
		giantN: 40000, giantDeg: 6,
		strips: 4, stripRows: 1000, stripCols: 10,
		serveGraphs: 16, serveMinN: 1000, serveMaxN: 2000,
		ingestMinN: 1000, ingestMaxN: 3000,
		readRPS: 40, ingestRPS: 10,
		readWarmup:    5 * time.Second,
		ingestWarmup:  2 * time.Second,
		warmOps:       2,
		librarySetups: 15, serveSetups: 11,
		decompNewKeys: 0.30, appNewKeys: 0.02, appShare: 0.30, zipfExponent: 1.1,
		cacheEntries:   32,
		requestTimeout: 30 * time.Second,
	}
	if tiny {
		z.giantN = 2000
		z.stripRows, z.stripCols = 100, 5
		z.serveGraphs, z.serveMinN, z.serveMaxN = 4, 100, 200
		z.ingestMinN, z.ingestMaxN = 100, 300
		z.readWarmup, z.ingestWarmup = 300*time.Millisecond, 300*time.Millisecond
		z.warmOps = 1
		z.librarySetups, z.serveSetups = 2, 1
	}
	return z
}

// decomposeAlgos are the constructions serve-read's /v1/decompose
// requests name. appAlgos are the strong-diameter ones its app requests
// name: the spanner and diameter checks assume connected clusters.
var (
	decomposeAlgos = []string{"chang-ghaffari", "chang-ghaffari-improved", "mpx", "linial-saks", "sequential"}
	appAlgos       = []string{"chang-ghaffari", "chang-ghaffari-improved", "mpx", "sequential"}
	appNames       = []string{"mis", "coloring", "diameter", "spanner"}
)

// readReq is one serve-read request: a decomposition (App empty) or an
// application answer over stored graph Graph.
type readReq struct {
	Due   time.Duration `json:"due"`
	App   string        `json:"app,omitempty"`
	Graph int           `json:"graph"`
	Algo  string        `json:"algo"`
	Seed  int64         `json:"seed"`
}

// ingestOp is one serve-ingest operation: upload IngestGraphs[Graph] to
// one shard, then decompose it by hash through the other.
type ingestOp struct {
	Due   time.Duration `json:"due"`
	Graph int           `json:"graph"`
}

// spec is everything the child needs; the parent writes it as spec.json.
type spec struct {
	Workload     string     `json:"workload"`
	Seed         int64      `json:"seed"`
	Seconds      float64    `json:"seconds"`
	Trace        bool       `json:"trace"`
	Tiny         bool       `json:"tiny"`
	Graph        string     `json:"graph,omitempty"`         // library input
	Graphs       []string   `json:"graphs,omitempty"`        // serve: stored graphs
	Reads        []readReq  `json:"reads,omitempty"`         // serve-read schedule
	IngestGraphs []string   `json:"ingest_graphs,omitempty"` // serve-ingest uploads
	Ingest       []ingestOp `json:"ingest,omitempty"`        // serve-ingest schedule
}

// subSeed derives an independent stream seed from the workload seed.
func subSeed(seed int64, salt uint64) int64 {
	x := uint64(seed) ^ (salt * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// giantGraph is decompose-giant's input: G(n, p) plus a Hamiltonian path
// over a random permutation, the distribution graph.ConnectedGnp draws
// from. ConnectedGnp flips a coin for each of the n²/2 node pairs, five
// seconds of every run at this size; geometric skipping over the pairs
// (Batagelj–Brandes) draws the same distribution in O(n+m).
func giantGraph(seed int64, z sizes) *graph.Graph {
	n := z.giantN
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(perm[i], perm[i+1])
	}
	// Pairs (v, w) with w < v, in order; each step skips a geometric
	// number of pairs that get no edge.
	logq := math.Log1p(-z.giantDeg / float64(n))
	for v, w := 1, -1; v < n; {
		w += 1 + int(math.Log(1-rng.Float64())/logq)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdge(v, w)
		}
	}
	return b.MustBuild()
}

// stripsGraph is decompose-strips' input: disjoint long thin grids whose
// node ids the seed permutes within each row. A uniformly random
// relabelling would change how the id-ordered carver breaks ties along
// the whole strip, and with it the work per op by about a fifth from seed
// to seed; row-local permutations change the input but leave the round
// count within half a percent.
func stripsGraph(seed int64, z sizes) *graph.Graph {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	gs := make([]*graph.Graph, z.strips)
	for i := range gs {
		gs[i] = graph.Grid(z.stripRows, z.stripCols)
	}
	g := graph.DisjointUnion(gs...)
	perm := make([]int, 0, g.N())
	for row := 0; row < g.N()/z.stripCols; row++ {
		for _, c := range rng.Perm(z.stripCols) {
			perm = append(perm, row*z.stripCols+c)
		}
	}
	return relabeled(g, perm)
}

// relabeled renames node v of g to perm[v].
func relabeled(g *graph.Graph, perm []int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(u, v int) { b.AddEdge(perm[u], perm[v]) })
	return b.MustBuild()
}

// serveFamilies name the graph families of the serve workloads.
var serveFamilies = []string{"gnp", "strips", "regular", "cluster"}

// familyGraph builds one serve-workload graph of about n nodes.
func familyGraph(family string, n int, rng *rand.Rand) *graph.Graph {
	seed := rng.Int63()
	switch family {
	case "gnp":
		return graph.ConnectedGnp(n, 4/float64(n), seed)
	case "strips":
		g := graph.Grid(max(1, n/10), 10)
		return relabeled(g, rng.Perm(g.N()))
	case "regular":
		return graph.RandomRegularish(n, 4, seed)
	default: // "cluster"
		return graph.ClusterGraph(max(1, n/50), 50, 0.2, seed)
	}
}

// The serve inputs are drawn by stratified sampling: shares and sizes
// are exact within every block, and only the order inside a block and
// the jitter inside a size band come from the seed. Plain independent
// draws would let one seed's run hold a few more slow computes than
// another's, which moves the tail percentiles more than any change
// under test.

// cycle hands out items in rounds, each round a fresh seeded shuffle,
// so every item is taken equally often.
type cycle[T any] struct {
	rng   *rand.Rand
	items []T
	order []int
}

func newCycle[T any](rng *rand.Rand, items []T) *cycle[T] {
	return &cycle[T]{rng: rng, items: items}
}

func (c *cycle[T]) take() T {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(len(c.items))
	}
	v := c.items[c.order[0]]
	c.order = c.order[1:]
	return v
}

// banded draws n in [lo, hi) from one of bands equal-width bands, the
// bands taken in cycles so the sizes cover the range evenly.
type banded struct {
	rng    *rand.Rand
	lo, hi int
	bands  *cycle[int]
}

func newBanded(rng *rand.Rand, lo, hi, bands int) *banded {
	idx := make([]int, bands)
	for i := range idx {
		idx[i] = i
	}
	return &banded{rng: rng, lo: lo, hi: hi, bands: newCycle(rng, idx)}
}

func (b *banded) take() int {
	width := (b.hi - b.lo) / len(b.bands.items)
	return b.lo + b.bands.take()*width + b.rng.Intn(max(1, width))
}

// storedGraphs are the graphs both serve workloads upload at set-up:
// the families in rotation, n spread evenly over [serveMinN, serveMaxN).
func storedGraphs(seed int64, z sizes) []*graph.Graph {
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	ns := newBanded(rng, z.serveMinN, z.serveMaxN, z.serveGraphs)
	out := make([]*graph.Graph, z.serveGraphs)
	for i := range out {
		out[i] = familyGraph(serveFamilies[i%len(serveFamilies)], ns.take(), rng)
	}
	return out
}

// readBlock is the number of requests over which serve-read's shares
// are exact: 5 s at 40 rps.
const readBlock = 200

// readSchedule is serve-read's open-loop request stream over warm-up
// plus the measured window, due at a fixed rate. In every block of
// readBlock requests, appShare of them go to /v2/apps, and decompNewKeys
// of the decompositions and appNewKeys of the app requests issue a new
// key; the rest repeat a key of their class drawn Zipf over the issued
// keys by recency, so the hot set keeps moving across graphs and
// algorithms while the LRU, disk and compute tiers each keep a steady
// share. New keys take every (graph, algorithm) or (graph, app,
// algorithm) combination in shuffled rounds, so each run computes the
// same mix.
func readSchedule(seed int64, seconds float64, z sizes) []readReq {
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	total := int((z.readWarmup.Seconds() + seconds) * z.readRPS)
	interval := time.Duration(float64(time.Second) / z.readRPS)

	type slot struct{ app, fresh bool }
	apps := int(math.Round(readBlock * z.appShare))
	appFresh := int(math.Round(float64(apps) * z.appNewKeys))
	decompFresh := int(math.Round(float64(readBlock-apps) * z.decompNewKeys))
	block := make([]slot, 0, readBlock)
	for i := 0; i < readBlock; i++ {
		isApp := i < apps
		fresh := (isApp && i < appFresh) || (!isApp && i-apps < decompFresh)
		block = append(block, slot{isApp, fresh})
	}

	var decompKeys, appKeys []readReq
	for g := 0; g < z.serveGraphs; g++ {
		for _, algo := range decomposeAlgos {
			decompKeys = append(decompKeys, readReq{Graph: g, Algo: algo})
		}
		for _, app := range appNames {
			for _, algo := range appAlgos {
				appKeys = append(appKeys, readReq{App: app, Graph: g, Algo: algo})
			}
		}
	}
	newDecomp, newApp := newCycle(rng, decompKeys), newCycle(rng, appKeys)

	var decomps, issuedApps []readReq
	out := make([]readReq, 0, total+readBlock)
	for len(out) < total {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, s := range block {
			keys, fresh := &decomps, newDecomp
			if s.app {
				keys, fresh = &issuedApps, newApp
			}
			var r readReq
			if s.fresh || len(*keys) == 0 {
				r = fresh.take()
				r.Seed = rng.Int63n(1 << 31)
				*keys = append(*keys, r)
			} else {
				r = (*keys)[len(*keys)-1-zipfRank(rng, z.zipfExponent, len(*keys))]
			}
			r.Due = time.Duration(len(out)) * interval
			out = append(out, r)
		}
	}
	return out[:total]
}

// zipfRank draws a rank in [0, n) with P(k) proportional to (1+k)^-s.
func zipfRank(rng *rand.Rand, s float64, n int) int {
	if n == 1 {
		return 0
	}
	return int(rand.NewZipf(rng, s, 1, uint64(n-1)).Uint64())
}

// ingestBands is the number of equal-width size bands over [ingestMinN,
// ingestMaxN).
const ingestBands = 10

// ingestInputs are serve-ingest's fresh graphs and its schedule: one op
// per graph, due at a fixed rate. Every (family, size band) pair is taken
// once per shuffled round: a family's cost grows with n at its own rate,
// so independent family and size cycles would still let one seed pair
// more large graphs with the slowest family than another.
func ingestInputs(seed int64, seconds float64, z sizes) ([]*graph.Graph, []ingestOp) {
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	total := int((z.ingestWarmup.Seconds() + seconds) * z.ingestRPS)
	interval := time.Duration(float64(time.Second) / z.ingestRPS)
	type kind struct {
		family string
		band   int
	}
	var kinds []kind
	for _, f := range serveFamilies {
		for b := 0; b < ingestBands; b++ {
			kinds = append(kinds, kind{f, b})
		}
	}
	next := newCycle(rng, kinds)
	width := (z.ingestMaxN - z.ingestMinN) / ingestBands
	gs := make([]*graph.Graph, total)
	ops := make([]ingestOp, total)
	for i := range gs {
		k := next.take()
		gs[i] = familyGraph(k.family, z.ingestMinN+k.band*width+rng.Intn(width), rng)
		ops[i] = ingestOp{Due: time.Duration(i) * interval, Graph: i}
	}
	return gs, ops
}

// prepare generates the workload's inputs into dir, with the spec the
// child runs.
func prepare(w workload, dir string, o options) error {
	z := sizing(o.tiny)
	sp := &spec{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Tiny: o.tiny}
	save := func(name string, g *graph.Graph) (string, error) {
		path := filepath.Join(dir, name+".el")
		if err := graphio.Save(path, g); err != nil {
			return "", fmt.Errorf("write input %s: %w", name, err)
		}
		return path, nil
	}
	var err error
	switch w.name {
	case "decompose-giant":
		sp.Graph, err = save("graph", giantGraph(o.seed, z))
	case "decompose-strips":
		sp.Graph, err = save("graph", stripsGraph(o.seed, z))
	default:
		for i, g := range storedGraphs(o.seed, z) {
			path, err := save(fmt.Sprintf("stored-%02d", i), g)
			if err != nil {
				return err
			}
			sp.Graphs = append(sp.Graphs, path)
		}
		if w.name == "serve-read" {
			sp.Reads = readSchedule(o.seed, o.seconds, z)
			break
		}
		gs, ops := ingestInputs(o.seed, o.seconds, z)
		for i, g := range gs {
			path, err := save(fmt.Sprintf("ingest-%04d", i), g)
			if err != nil {
				return err
			}
			sp.IngestGraphs = append(sp.IngestGraphs, path)
		}
		sp.Ingest = ops
	}
	if err != nil {
		return err
	}
	data, err := json.Marshal(sp)
	if err != nil {
		return fmt.Errorf("encode spec: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), data, 0o644); err != nil {
		return fmt.Errorf("write spec: %w", err)
	}
	return nil
}
