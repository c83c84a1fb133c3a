// Command loadgen drives a running serve instance with an open-loop
// request stream and reports latency percentiles — the measuring half of
// the observability story. Open-loop means arrivals come off a fixed-rate
// clock regardless of how fast responses return, so a slow server shows
// up as queueing delay in the percentiles instead of silently throttling
// the generator (the coordinated-omission trap of closed-loop drivers).
//
// The workload is a mix list: each entry names an algorithm, a graph
// family, and a node count. loadgen generates the graphs locally, uploads
// each once via POST /v1/graphs, then round-robins decompose requests
// across the mixes with a rotating seed (so a fraction of requests are
// cache hits and the rest compute — the blend a real cache-fronted
// deployment serves). Latencies land in the same log-bucketed histogram
// the server exports, so client-observed and server-observed percentiles
// are directly comparable.
//
// A mix entry may name a served application (mis, coloring, diameter, or
// spanner) instead of an algorithm; such entries drive POST
// /v2/apps/{app} against the uploaded graph, exercising the app cache
// and the decomposition amortization path underneath it.
//
// Usage:
//
//	loadgen -target http://localhost:8080 -rps 50 -duration 10s \
//	        [-mix chang-ghaffari:grid:400,sequential:gnp:300] \
//	        [-seeds 8] [-timeout 10s] [-out BENCH_pr7.json] [-pr pr7]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strongdecomp"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// mix is one workload slot: an algorithm or served application run
// against one uploaded graph. app is true when algo names an
// application (requests go to /v2/apps/{algo} instead of /v1/decompose).
type mix struct {
	algo string
	app  bool
	gen  string
	n    int
	hash string

	hist   obs.Histogram
	sent   atomic.Int64
	errors atomic.Int64
	maxNS  atomic.Int64
}

// parseMixes parses the -mix list: comma-separated algo:family:n entries.
// The first field may also name a served application (see service.Apps);
// app entries are checked against the app roster instead of the
// algorithm registry.
func parseMixes(spec string) ([]*mix, error) {
	apps := make(map[string]bool)
	for _, a := range service.Apps() {
		apps[a] = true
	}
	var out []*mix
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("mix entry %q: want algo:family:n or app:family:n", entry)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("mix entry %q: bad node count", entry)
		}
		if !apps[parts[0]] {
			if _, err := strongdecomp.Lookup(parts[0]); err != nil {
				return nil, err
			}
		}
		out = append(out, &mix{algo: parts[0], app: apps[parts[0]], gen: parts[1], n: n})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -mix")
	}
	return out, nil
}

// csrPath backs the -csr flag: the snapshot file the "csr" mix family
// mmap-loads as its workload graph (one written by graphio.SaveCSR, or
// one of the snapshots serve -data-dir stores).
var csrPath string

// makeGraph generates one workload graph by family name.
func makeGraph(gen string, n int, seed int64) (*strongdecomp.Graph, error) {
	switch gen {
	case "csr":
		if csrPath == "" {
			return nil, fmt.Errorf("mix family \"csr\" needs -csr pointing at a snapshot file")
		}
		return strongdecomp.LoadGraph(csrPath)
	case "gnp":
		return strongdecomp.ConnectedGnpGraph(n, 4/float64(n), seed), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return strongdecomp.GridGraph(side, side), nil
	case "path":
		return strongdecomp.PathGraph(n), nil
	case "tree":
		return strongdecomp.BinaryTreeGraph(n), nil
	case "expander":
		return strongdecomp.ExpanderGraph(n, 4, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q (want gnp|grid|path|tree|expander|csr)", gen)
	}
}

func run() error {
	var (
		target   = flag.String("target", "http://localhost:8080", "base URL of the serve instance")
		rps      = flag.Float64("rps", 50, "open-loop arrival rate, requests per second")
		duration = flag.Duration("duration", 10*time.Second, "how long to generate load")
		mixSpec  = flag.String("mix", "chang-ghaffari:grid:400,sequential:gnp:300", "comma-separated algo:family:n workload mixes; the first field may name a served app (mis|coloring|diameter|spanner) to drive /v2/apps/{app}")
		seeds    = flag.Int("seeds", 8, "distinct seeds rotated per mix (controls the cache hit/compute blend)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		out      = flag.String("out", "", "write the JSON report here (empty: stdout)")
		pr       = flag.String("pr", "pr7", "artifact tag recorded in the report")
		csrFile  = flag.String("csr", "", "mmap-load this .csr snapshot for \"csr\" mix entries (family csr ignores the mix's node count)")
	)
	flag.Parse()
	csrPath = *csrFile
	if *rps <= 0 {
		return fmt.Errorf("-rps must be positive")
	}
	if *seeds <= 0 {
		*seeds = 1
	}

	mixes, err := parseMixes(*mixSpec)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: *timeout}
	for _, m := range mixes {
		if m.hash, err = upload(client, *target, m); err != nil {
			return fmt.Errorf("upload %s/%d: %w", m.gen, m.n, err)
		}
	}

	// Open loop: a fixed-rate ticker dispatches sends into goroutines;
	// the clock never waits for a response, so server-side queueing is
	// measured, not masked.
	interval := time.Duration(float64(time.Second) / *rps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	deadline := time.After(*duration)
	var wg sync.WaitGroup
	var tick int64
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			m := mixes[tick%int64(len(mixes))]
			seed := tick % int64(*seeds)
			tick++
			wg.Add(1)
			go func() {
				defer wg.Done()
				fire(client, *target, m, seed)
			}()
		}
	}
	ticker.Stop()
	wg.Wait()

	return report(*out, *pr, *rps, *duration, *seeds, mixes)
}

// upload serializes the mix's graph and registers it with the server,
// returning the content hash subsequent requests route by.
func upload(client *http.Client, target string, m *mix) (string, error) {
	g, err := makeGraph(m.gen, m.n, 1)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, graphio.FormatJSON); err != nil {
		return "", err
	}
	resp, err := client.Post(target+"/v1/graphs", "application/json", &buf)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	return doc.Hash, nil
}

// fire sends one decompose (or application) request and folds the
// observed latency (or an error) into the mix's stats.
func fire(client *http.Client, target string, m *mix, seed int64) {
	m.sent.Add(1)
	url := target + "/v1/decompose"
	payload := map[string]any{"hash": m.hash, "algo": m.algo, "seed": seed}
	if m.app {
		url = target + "/v2/apps/" + m.algo
		payload = map[string]any{"hash": m.hash, "seed": seed}
	}
	body, _ := json.Marshal(payload)
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	d := time.Since(start)
	if err != nil {
		m.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m.errors.Add(1)
		return
	}
	m.hist.Observe(d)
	for {
		old := m.maxNS.Load()
		if int64(d) <= old || m.maxNS.CompareAndSwap(old, int64(d)) {
			break
		}
	}
}

// mixReport is the per-mix block of the emitted artifact. Percentiles are
// log₂-bucket upper bounds (≤ one bucket width above the true value).
type mixReport struct {
	Algo   string  `json:"algo"`
	Graph  string  `json:"graph"`
	N      int     `json:"n"`
	Hash   string  `json:"hash"`
	Sent   int64   `json:"sent"`
	OK     uint64  `json:"ok"`
	Errors int64   `json:"errors"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// document is the artifact schema loadgen emits.
type document struct {
	Schema    string      `json:"schema"`
	PR        string      `json:"pr"`
	GoVersion string      `json:"goVersion"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	CPUs      int         `json:"cpus"`
	Target    string      `json:"targetNote"`
	RPS       float64     `json:"rps"`
	DurationS float64     `json:"durationSeconds"`
	Seeds     int         `json:"seeds"`
	Mixes     []mixReport `json:"mixes"`
}

// report renders the artifact and writes it to out (or stdout).
func report(out, pr string, rps float64, duration time.Duration, seeds int, mixes []*mix) error {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	doc := document{
		Schema:    "strongdecomp-loadgen/v1",
		PR:        pr,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Target:    "open-loop client-observed latency; percentiles are log2-bucket upper bounds",
		RPS:       rps,
		DurationS: duration.Seconds(),
		Seeds:     seeds,
	}
	for _, m := range mixes {
		s := m.hist.Snapshot()
		doc.Mixes = append(doc.Mixes, mixReport{
			Algo: m.algo, Graph: m.gen, N: m.n, Hash: m.hash,
			Sent: m.sent.Load(), OK: s.Count, Errors: m.errors.Load(),
			P50MS:  ms(s.Quantile(0.50)),
			P90MS:  ms(s.Quantile(0.90)),
			P99MS:  ms(s.Quantile(0.99)),
			P999MS: ms(s.Quantile(0.999)),
			MeanMS: ms(s.Mean()),
			MaxMS:  ms(time.Duration(m.maxNS.Load())),
		})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
