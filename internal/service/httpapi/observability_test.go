package httpapi

// Tests for the observability and orchestration surface added alongside
// cluster mode: the readiness probe, the Prometheus exposition (and the
// JSON fallback), health detail merging, and the batch compute endpoint.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/service"
)

// obsStubSeq makes stub names unique across multiple servers per test.
var obsStubSeq atomic.Int64

// newOptsServer is newTestServer with handler options.
func newOptsServer(t *testing.T, opts ...Option) (*httptest.Server, string) {
	t.Helper()
	algo := fmt.Sprintf("obs-stub-%s-%d", t.Name(), obsStubSeq.Add(1))
	err := registry.Register(algo, func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{Name: algo, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, opts registry.RunOptions) (*cluster.Decomposition, error) {
				return &cluster.Decomposition{Assign: make([]int, g.N()), Color: []int{0}, K: 1, Colors: 1}, nil
			},
			CarveFunc: func(ctx context.Context, g *graph.Graph, eps float64, opts registry.RunOptions) (*cluster.Carving, error) {
				return &cluster.Carving{Assign: make([]int, g.N()), K: 1}, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(algo) })
	svc, err := service.New(service.Config{DefaultAlgorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(New(svc, opts...))
	t.Cleanup(srv.Close)
	return srv, algo
}

// get fetches a URL and returns (status, content type, body).
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestServiceHTTPReadyz: without a probe installed readiness is
// unconditional; with one, its error surfaces as 503 + reason while
// liveness stays 200 — the split that lets a drain pull a node from load
// balancing without getting it killed.
func TestServiceHTTPReadyz(t *testing.T) {
	srv, _ := newOptsServer(t)
	status, _, body := get(t, srv.URL+"/readyz")
	if status != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("bare readyz: status %d body %s", status, body)
	}

	unready := fmt.Errorf("shard s1 is draining")
	srv2, _ := newOptsServer(t, WithReadiness(func() error { return unready }))
	status, _, body = get(t, srv2.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("failing probe: status %d, want 503", status)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil || out["status"] != "unready" || !strings.Contains(out["reason"], "draining") {
		t.Fatalf("unready body: %s (err %v)", body, err)
	}
	if status, _, _ := get(t, srv2.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("liveness followed readiness down: %d", status)
	}
}

// TestServiceHTTPHealthzDetail: WithHealthDetail merges topology fields
// into the liveness body without displacing the status field.
func TestServiceHTTPHealthzDetail(t *testing.T) {
	srv, _ := newOptsServer(t, WithHealthDetail(func() map[string]any {
		return map[string]any{"shard_id": "s2", "status": "spoofed"}
	}))
	status, _, body := get(t, srv.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["shard_id"] != "s2" {
		t.Fatalf("healthz detail body: %v", out)
	}
}

// TestServiceHTTPMetricsPrometheus: the default /metrics body is a
// text-exposition document whose counters move with traffic, the engine's
// counters surface under strongdecomp_runner, and cluster stats surface
// under the strongdecomp_shard_ prefix.
func TestServiceHTTPMetricsPrometheus(t *testing.T) {
	srv, algo := newOptsServer(t, WithClusterStats(func() map[string]int64 {
		return map[string]int64{"proxied_total": 7, "peers_down": 1}
	}))
	g := graph.Cycle(8)
	if resp, body := postJSON(t, srv.URL+"/v1/decompose", map[string]any{"graph": graphio.ToDocument(g), "algo": algo}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compute: %d %s", resp.StatusCode, body)
	}

	status, ctype, body := get(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("content type %q is not the exposition format", ctype)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE strongdecomp_requests_total counter",
		"strongdecomp_requests_total 1",
		"# TYPE strongdecomp_uptime_seconds gauge",
		"strongdecomp_algorithm_requests_total{algorithm=\"" + algo + "\"} 1",
		"# TYPE strongdecomp_shard_proxied_total counter",
		"strongdecomp_shard_proxied_total 7",
		"# TYPE strongdecomp_shard_peers_down gauge",
		"strongdecomp_shard_peers_down 1",
		// The one compute ran on the service's engine: one connected
		// component, one construction run.
		"# TYPE strongdecomp_runner untyped",
		"strongdecomp_runner{counter=\"runs\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestServiceHTTPMetricsFormats: ?format=json keeps the legacy JSON
// snapshot; unknown formats are 400, not silently defaulted.
func TestServiceHTTPMetricsFormats(t *testing.T) {
	srv, _ := newOptsServer(t)
	status, ctype, body := get(t, srv.URL+"/metrics?format=json")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("json metrics: status %d type %q", status, ctype)
	}
	var stats struct {
		Requests *int64 `json:"requests"`
	}
	if err := json.Unmarshal(body, &stats); err != nil || stats.Requests == nil {
		t.Fatalf("json metrics body %s (err %v)", body, err)
	}
	if status, _, _ := get(t, srv.URL+"/metrics?format=xml"); status != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", status)
	}
}

// TestServiceHTTPBatch: one POST answers many compute requests, slots
// aligned to request order, per-item kinds honored, per-item failures
// isolated.
func TestServiceHTTPBatch(t *testing.T) {
	srv, algo := newOptsServer(t)
	g1, g2 := graph.Cycle(10), graph.Path(7)
	body := map[string]any{"requests": []map[string]any{
		{"graph": graphio.ToDocument(g1), "algo": algo},
		{"kind": "carve", "graph": graphio.ToDocument(g2), "algo": algo, "eps": 0.5},
		{"kind": "nonsense", "graph": graphio.ToDocument(g1), "algo": algo},
		{"hash": strings.Repeat("ab", 32), "algo": algo},
	}}
	resp, data := postJSON(t, srv.URL+"/v1/decompose/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	var out struct {
		Results []struct {
			Result *struct {
				GraphHash string `json:"graph_hash"`
				Kind      string `json:"kind"`
				Assign    []int  `json:"assign"`
			} `json:"result"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("batch answered %d of 4 slots", len(out.Results))
	}
	if r := out.Results[0].Result; r == nil || r.Kind != "decompose" || len(r.Assign) != g1.N() || r.GraphHash != graphio.Hash(g1) {
		t.Fatalf("slot 0: %+v (%s)", out.Results[0].Result, out.Results[0].Error)
	}
	if r := out.Results[1].Result; r == nil || r.Kind != "carve" || len(r.Assign) != g2.N() {
		t.Fatalf("slot 1: %+v (%s)", out.Results[1].Result, out.Results[1].Error)
	}
	if e := out.Results[2].Error; !strings.Contains(e, "nonsense") {
		t.Fatalf("slot 2 error %q does not name the bad kind", e)
	}
	if e := out.Results[3].Error; !strings.Contains(e, "unknown graph") {
		t.Fatalf("slot 3 error %q is not the unknown-graph error", e)
	}

	// The request-count bound is enforced before any work starts.
	over := map[string]any{"requests": make([]map[string]any, 1025)}
	if resp, _ := postJSON(t, srv.URL+"/v1/decompose/batch", over); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}
