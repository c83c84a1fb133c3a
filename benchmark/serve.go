package main

// Serve workloads: a 2-shard in-process cluster wired the way cmd/serve
// wires a shard (strongdecomp.NewService with a per-shard data directory
// and the cluster's hooks, httpapi behind the collector middleware and
// the shard proxy, one replica), result and app LRUs of 32 entries, and
// an open-loop client with at most nproc requests in flight that
// alternates between the two shard listeners, so about half the requests
// take a proxy hop.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"strongdecomp"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/service/httpapi"
	"strongdecomp/internal/shard"
)

const numShards = 2

// shardProc is one running shard.
type shardProc struct {
	svc     *strongdecomp.Service
	cluster *shard.Cluster
	srv     *http.Server
	served  chan error // Serve's return value
}

// servingCluster is the in-process 2-shard cluster.
type servingCluster struct {
	shards []*shardProc
	urls   []string
}

// startCluster builds and starts every shard; tr is nil for untraced
// runs.
func startCluster(dataRoot string, tr *serveTrace, z sizes) (*servingCluster, error) {
	lns := make([]net.Listener, 0, numShards)
	members := make([]shard.Member, numShards)
	for i := range members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		members[i] = shard.Member{ID: fmt.Sprintf("s%d", i), URL: "http://" + ln.Addr().String()}
	}
	c := &servingCluster{}
	for i, ln := range lns {
		sp, err := startShard(i, ln, members, filepath.Join(dataRoot, members[i].ID), tr, z)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, fmt.Errorf("start shard %s: %w", members[i].ID, err)
		}
		c.shards = append(c.shards, sp)
		c.urls = append(c.urls, members[i].URL)
	}
	return c, nil
}

// startShard wires one shard and starts serving on ln.
func startShard(i int, ln net.Listener, members []shard.Member, dataDir string, tr *serveTrace, z sizes) (*shardProc, error) {
	id := members[i].ID
	cl, err := shard.NewCluster(shard.Config{SelfID: id, Members: members, Replicas: 1})
	if err != nil {
		return nil, err
	}
	svc, err := strongdecomp.NewService(
		strongdecomp.WithServiceAlgorithm(strongdecomp.DefaultAlgorithm),
		strongdecomp.WithServiceCacheSize(z.cacheEntries),
		strongdecomp.WithServiceAppCacheSize(z.cacheEntries),
		strongdecomp.WithServiceTimeout(30*time.Second),
		strongdecomp.WithServiceDataDir(dataDir),
		strongdecomp.WithServiceClusterHooks(cl.Hooks()),
	)
	if err != nil {
		cl.Close()
		return nil, err
	}
	// Untraced runs log at warn, so no span is emitted; the traced pass
	// keeps spans at info and hands them to the in-memory sink.
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	if tr != nil {
		logger = slog.New(spanHandler{t: tr, shard: i})
	}
	col := obs.NewCollector(logger)
	var local http.Handler = httpapi.New(svc,
		httpapi.WithReadiness(cl.Ready),
		httpapi.WithHealthDetail(cl.HealthDetail),
		httpapi.WithClusterStats(cl.Stats),
		httpapi.WithObs(col),
		httpapi.WithServedBy(id),
	)
	if tr != nil {
		local = tr.wrap("local", i, local)
	}
	handler := col.Middleware(cl.Handler(svc, local))
	if tr != nil {
		handler = tr.wrap("outer", i, handler)
	}
	sp := &shardProc{
		svc:     svc,
		cluster: cl,
		srv:     &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		served:  make(chan error, 1),
	}
	go func() { sp.served <- sp.srv.Serve(ln) }()
	return sp, nil
}

// close stops every shard and waits for its listener goroutine. Nothing
// the benchmark measures is in flight by then, so connections are dropped
// rather than drained: a graceful Shutdown waits up to 5 s for a
// connection a peer's transport dialled but never used, which made set-up
// and teardown take seconds.
func (c *servingCluster) close() {
	for _, s := range c.shards {
		s.srv.Close()
		<-s.served
	}
	for _, s := range c.shards {
		s.cluster.Close()
		s.svc.Close()
	}
}

// counters are the cluster-wide service and shard counters the layer
// metrics diff over the measured window.
type counters struct {
	lookups       int64 // decomposition and app lookups, apps' internal decomposition lookups included
	appLookups    int64
	dedup         int64
	quarantined   int64
	proxied       int64
	replicas      int64 // graph and result replicas pushed
	replicaErrors int64
}

func (c *servingCluster) counters() counters {
	var out counters
	for _, s := range c.shards {
		st := s.svc.Stats()
		for _, a := range st.Algorithms {
			out.lookups += a.Requests
			out.dedup += a.DedupShared
		}
		for _, a := range st.Apps {
			out.lookups += a.Requests
			out.appLookups += a.Requests
			out.dedup += a.DedupShared
		}
		if st.Persist != nil {
			out.quarantined += st.Persist.Quarantined
		}
		cs := s.cluster.Stats()
		out.proxied += cs["proxied_total"]
		out.replicas += cs["graph_replicas_total"] + cs["result_replicas_total"]
		out.replicaErrors += cs["replica_errors_total"]
	}
	return out
}

func (a counters) minus(b counters) counters {
	return counters{
		lookups:       a.lookups - b.lookups,
		appLookups:    a.appLookups - b.appLookups,
		dedup:         a.dedup - b.dedup,
		quarantined:   a.quarantined - b.quarantined,
		proxied:       a.proxied - b.proxied,
		replicas:      a.replicas - b.replicas,
		replicaErrors: a.replicaErrors - b.replicaErrors,
	}
}

// waitReplication waits until want replica pushes have settled, so the
// next phase does not share the CPU with set-up's asynchronous pushes.
func (c *servingCluster) waitReplication(want int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := c.counters()
		if n.replicas+n.replicaErrors >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d replica pushes settled after 10s", n.replicas+n.replicaErrors, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// client is the load generator's HTTP side. openLoop keeps at most
// inFlight() requests outstanding, so the transport never needs more
// connections to one shard than that.
type client struct {
	hc   *http.Client
	urls []string
}

func newClient(urls []string, timeout time.Duration) *client {
	return &client{
		hc: &http.Client{Timeout: timeout, Transport: &http.Transport{
			MaxConnsPerHost:     inFlight(),
			MaxIdleConnsPerHost: inFlight(),
			DisableCompression:  true,
		}},
		urls: urls,
	}
}

// inFlight is the client's concurrency: one outstanding request per CPU.
func inFlight() int { return runtime.NumCPU() }

// post sends body to one shard and returns the response body; any status
// but 200 is an error.
func (c *client) post(ctx context.Context, shardIdx int, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.urls[shardIdx]+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: read body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	return data, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// input is one generated graph as the client holds it: the bytes it
// uploads, its own parsed copy for checking answers, and its hash.
type input struct {
	body []byte
	g    *graph.Graph
	hash string
}

func loadInputs(paths []string) ([]input, error) {
	out := make([]input, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("read input: %w", err)
		}
		g, err := graphio.Read(bytes.NewReader(data), graphio.FormatEdgeList)
		if err != nil {
			return nil, fmt.Errorf("parse input %s: %w", path, err)
		}
		out[i] = input{body: data, g: g, hash: graphio.Hash(g)}
	}
	return out, nil
}

// graphResponse is the POST /v1/graphs answer.
type graphResponse struct {
	Hash string `json:"hash"`
	N    int    `json:"n"`
	M    int    `json:"m"`
}

// upload stores one graph through a shard and checks the answer.
func upload(ctx context.Context, cli *client, shardIdx int, in input) (string, error) {
	data, err := cli.post(ctx, shardIdx, "/v1/graphs?format=edgelist", "text/plain", in.body)
	if err != nil {
		return "", err
	}
	var gr graphResponse
	if err := json.Unmarshal(data, &gr); err != nil {
		return "", fmt.Errorf("decode upload answer: %w", err)
	}
	if gr.Hash != in.hash || gr.N != in.g.N() || gr.M != in.g.M() {
		return "", fmt.Errorf("upload answered hash %.12s n=%d m=%d, want %.12s n=%d m=%d",
			gr.Hash, gr.N, gr.M, in.hash, in.g.N(), in.g.M())
	}
	return gr.Hash, nil
}

// decomposeResponse is the subset of a /v1/decompose answer the checks read.
type decomposeResponse struct {
	GraphHash string `json:"graph_hash"`
	Algo      string `json:"algo"`
	K         int    `json:"k"`
	Assign    []int  `json:"assign"`
	Color     []int  `json:"color"`
}

// appResponse is the subset of a /v2/apps/{app} answer the checks read.
type appResponse struct {
	GraphHash    string   `json:"graph_hash"`
	App          string   `json:"app"`
	InMIS        []bool   `json:"in_mis"`
	ColorOf      []int    `json:"color_of"`
	PaletteSize  int      `json:"palette_size"`
	Diameter     *int     `json:"diameter"`
	SpannerEdges [][2]int `json:"spanner_edges"`
}

// checkDecomposeAnswer decodes and checks one decomposition answer.
func checkDecomposeAnswer(data []byte, in input, algo string, strong bool) error {
	var r decomposeResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("decode decomposition: %w", err)
	}
	if r.GraphHash != in.hash || r.Algo != algo {
		return fmt.Errorf("answer for graph %.12s algo %q, asked %.12s algo %q", r.GraphHash, r.Algo, in.hash, algo)
	}
	return checkDecomposition(in.g, r.Assign, r.Color, r.K, strong)
}

// checkAppAnswer decodes and checks one application answer.
func checkAppAnswer(data []byte, in input, app string) error {
	var r appResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("decode %s answer: %w", app, err)
	}
	if r.GraphHash != in.hash || r.App != app {
		return fmt.Errorf("answer for graph %.12s app %q, asked %.12s app %q", r.GraphHash, r.App, in.hash, app)
	}
	switch app {
	case "mis":
		return checkMIS(in.g, r.InMIS)
	case "coloring":
		return checkColoring(in.g, r.ColorOf, r.PaletteSize)
	case "diameter":
		if r.Diameter == nil {
			return fmt.Errorf("diameter answer carries no diameter")
		}
		return checkDiameter(in.g, *r.Diameter)
	default:
		return checkSpanner(in.g, r.SpannerEdges)
	}
}

// opOutcome is one open-loop op as the client saw it.
type opOutcome struct {
	latency time.Duration // from when the op was due to when its last answer arrived
	late    time.Duration // how late the generator dispatched it
	answer  []byte        // the last answer, checked after the run
	err     error
}

// openLoop dispatches op i at start+dues[i] regardless of earlier answers
// and runs it, addressed to shard i%numShards, on the first free of
// inFlight() workers. Latency is timed from the due time, so waiting for
// a free worker behind slow answers counts. onMeasure runs just before
// op firstMeasured is dispatched. Answers are kept, not checked, so the
// checks do not compete with the servers for the CPU.
func openLoop(ctx context.Context, dues []time.Duration, firstMeasured int, onMeasure func(),
	run func(ctx context.Context, i, shardIdx int) ([]byte, error)) []opOutcome {
	out := make([]opOutcome, len(dues))
	start := time.Now().Add(10 * time.Millisecond)
	queue := make(chan int, len(dues)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < inFlight(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				answer, err := run(ctx, i, i%numShards)
				out[i].latency = time.Since(start.Add(dues[i]))
				out[i].answer, out[i].err = answer, err
			}
		}()
	}
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if i == firstMeasured {
			onMeasure()
		}
		out[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

func runServe(ctx context.Context, dir string, sp *spec) (*childResult, error) {
	z := sizing(sp.Tiny)
	res := &childResult{Layer: map[string]float64{}}
	stored, err := loadInputs(sp.Graphs)
	if err != nil {
		return nil, err
	}
	var fresh []input
	if sp.Workload == "serve-ingest" {
		if fresh, err = loadInputs(sp.IngestGraphs); err != nil {
			return nil, err
		}
	}
	var tr *serveTrace
	if sp.Trace {
		tr = &serveTrace{}
	}
	cl, cli, err := setUp(ctx, dir, tr, z, stored, res)
	if err != nil {
		return nil, err
	}
	defer func() {
		cl.close()
		cli.close()
	}()
	dues, run, check, reqsPerOp, err := serveOps(sp, cli, stored, fresh)
	if err != nil {
		return nil, err
	}
	warmup := z.readWarmup
	if sp.Workload == "serve-ingest" {
		warmup = z.ingestWarmup
	}
	firstMeasured := len(dues)
	for i, d := range dues {
		if d >= warmup {
			firstMeasured = i
			break
		}
	}
	if firstMeasured == len(dues) {
		return nil, fmt.Errorf("schedule of %d ops has none after the %v warm-up", len(dues), warmup)
	}

	var (
		before   counters
		m0       memSnap
		from     time.Time
		sinkFrom time.Duration
		stopProf = func() error { return nil }
		profErr  error
	)
	onMeasure := func() {
		from, before, m0 = time.Now(), cl.counters(), readMem()
		if tr != nil {
			sinkFrom = tr.sinkTime()
			stopProf, profErr = startProfile(dir)
		}
	}
	outcomes := openLoop(ctx, dues, firstMeasured, onMeasure, run)
	delta := cl.counters().minus(before)
	m1 := readMem()
	if profErr != nil {
		return nil, profErr
	}
	if err := stopProf(); err != nil {
		return nil, fmt.Errorf("stop profile: %w", err)
	}
	for i, o := range outcomes {
		err := o.err
		if err == nil {
			err = check(i, o.answer)
		}
		if i < firstMeasured {
			if err != nil {
				res.note("warm-up op %d: %v", i, err)
			}
			continue
		}
		res.record(ms(o.latency), err)
		res.LateMS = append(res.LateMS, ms(o.late))
	}
	m0.perOp(m1, res.Attempted, res.Layer)
	res.Layer["shard.replicas_pushed"] = float64(delta.replicas)
	res.Layer["shard.replica_errors"] = float64(delta.replicaErrors)
	res.Layer["service.quarantined"] = float64(delta.quarantined)
	if tr != nil {
		tr.report(res.Layer, from, sinkFrom, delta, res.Attempted*reqsPerOp)
		if err := writeSpans(filepath.Join(dir, spansFile), tr.lines(from)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp builds the cluster and uploads the stored graphs z.serveSetups
// times, each on fresh data directories, and keeps the last cluster.
// setup_s is the median of the set-ups, graphio.load_s the median of
// their upload time.
func setUp(ctx context.Context, dir string, tr *serveTrace, z sizes, stored []input, res *childResult) (*servingCluster, *client, error) {
	var (
		cl            *servingCluster
		cli           *client
		setups, loads []float64
	)
	for i := 0; i < z.serveSetups; i++ {
		if cl != nil {
			cl.close()
			cli.close()
		}
		start := time.Now()
		var err error
		if cl, err = startCluster(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), tr, z); err != nil {
			return nil, nil, err
		}
		cli = newClient(cl.urls, z.requestTimeout)
		var uploading time.Duration
		for j, in := range stored {
			t0 := time.Now()
			if _, err := upload(ctx, cli, j%numShards, in); err != nil {
				cl.close()
				cli.close()
				return nil, nil, fmt.Errorf("set-up upload %d: %w", j, err)
			}
			uploading += time.Since(t0)
		}
		setups = append(setups, time.Since(start).Seconds())
		loads = append(loads, uploading.Seconds())
		if err := cl.waitReplication(int64(len(stored))); err != nil {
			res.note("set-up %d: %v", i, err)
		}
	}
	res.SetupS = median(setups)
	res.Layer["graphio.load_s"] = median(loads)
	return cl, cli, nil
}

// serveOps returns a serve workload's schedule, the op that runs entry
// i against shard shardIdx, the check of its answer, and the requests
// one op sends.
func serveOps(sp *spec, cli *client, stored, fresh []input) (
	dues []time.Duration,
	run func(ctx context.Context, i, shardIdx int) ([]byte, error),
	check func(i int, answer []byte) error,
	reqsPerOp int,
	err error,
) {
	if sp.Workload == "serve-ingest" {
		for _, op := range sp.Ingest {
			dues = append(dues, op.Due)
		}
		// Upload to one shard, then decompose by hash through the other.
		run = func(ctx context.Context, i, s int) ([]byte, error) {
			hash, err := upload(ctx, cli, s, fresh[sp.Ingest[i].Graph])
			if err != nil {
				return nil, err
			}
			body := []byte(fmt.Sprintf(`{"hash":%q}`, hash))
			return cli.post(ctx, (s+1)%numShards, "/v1/decompose", "application/json", body)
		}
		check = func(i int, answer []byte) error {
			return checkDecomposeAnswer(answer, fresh[sp.Ingest[i].Graph], strongdecomp.DefaultAlgorithm, true)
		}
		return dues, run, check, 2, nil
	}

	strong := make(map[string]bool)
	for _, algo := range decomposeAlgos {
		d, err := strongdecomp.Lookup(algo)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		strong[algo] = d.Info().Diameter == "strong"
	}
	for _, r := range sp.Reads {
		dues = append(dues, r.Due)
	}
	run = func(ctx context.Context, i, s int) ([]byte, error) {
		q := sp.Reads[i]
		body := []byte(fmt.Sprintf(`{"hash":%q,"algo":%q,"seed":%d}`, stored[q.Graph].hash, q.Algo, q.Seed))
		path := "/v1/decompose"
		if q.App != "" {
			path = "/v2/apps/" + q.App
		}
		return cli.post(ctx, s, path, "application/json", body)
	}
	check = func(i int, answer []byte) error {
		q := sp.Reads[i]
		if q.App != "" {
			return checkAppAnswer(answer, stored[q.Graph], q.App)
		}
		return checkDecomposeAnswer(answer, stored[q.Graph], q.Algo, strong[q.Algo])
	}
	return dues, run, check, 1, nil
}
