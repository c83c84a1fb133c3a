package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/service"
)

// newTestServer registers a stub construction and mounts a fresh service
// behind httptest.
func newTestServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	algo := fmt.Sprintf("http-stub-%s", t.Name())
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
	srv := httptest.NewServer(New(svc))
	t.Cleanup(srv.Close)
	return srv, algo
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServiceHTTPHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["status"] != "ok" {
		t.Fatalf("body = %v, err = %v", body, err)
	}
}

func TestServiceHTTPAlgorithms(t *testing.T) {
	srv, algo := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []struct {
		Name    string `json:"name"`
		Model   string `json:"model"`
		Default bool   `json:"default"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		if info.Name == algo {
			found = info.Default && info.Model == "deterministic"
		}
	}
	if !found {
		t.Fatalf("registered stub missing or mis-described in %+v", infos)
	}
}

// TestUploadUsesParsedGraphFromContext: an upload served under
// WithParsedUpload stores the carried graph under the carried hash and
// never reads the body — garbage bytes still answer 200 — which is how
// the cluster proxy's parse stands in for a second one.
func TestUploadUsesParsedGraphFromContext(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	g := graph.Grid(3, 5)
	hash := graphio.Hash(g)
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs?format=edgelist", strings.NewReader("not a graph"))
	req = req.WithContext(WithParsedUpload(req.Context(), g, hash))
	rec := httptest.NewRecorder()
	New(svc).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var up struct {
		Hash string `json:"hash"`
		N    int    `json:"n"`
		M    int    `json:"m"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	if up.Hash != hash || up.N != g.N() || up.M != g.M() {
		t.Fatalf("answered %+v, want hash %s n=%d m=%d", up, hash, g.N(), g.M())
	}
	if got, ok := svc.GetGraph(hash); !ok || got != g {
		t.Fatal("the carried graph was not stored under its hash")
	}
}

func TestServiceHTTPUploadAndCompute(t *testing.T) {
	srv, algo := newTestServer(t)
	g := graph.Cycle(10)

	// Upload in METIS form to exercise non-default formats.
	var buf bytes.Buffer
	if err := graphio.WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/graphs?format=metis", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Hash string `json:"hash"`
		N    int    `json:"n"`
		M    int    `json:"m"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || up.Hash != graphio.Hash(g) || up.N != 10 || up.M != 10 {
		t.Fatalf("upload: status %d, %+v", resp.StatusCode, up)
	}

	// Decompose by hash; repeat must be served from cache.
	var out struct {
		GraphHash string `json:"graph_hash"`
		Algo      string `json:"algo"`
		K         int    `json:"k"`
		Colors    int    `json:"colors"`
		Assign    []int  `json:"assign"`
		Cached    bool   `json:"cached"`
	}
	resp1, body1 := postJSON(t, srv.URL+"/v1/decompose", map[string]any{"hash": up.Hash})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("decompose: %d %s", resp1.StatusCode, body1)
	}
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached || out.Algo != algo || len(out.Assign) != 10 || out.K != 1 {
		t.Fatalf("first decompose response: %+v", out)
	}
	resp2, body2 := postJSON(t, srv.URL+"/v1/decompose", map[string]any{"hash": up.Hash})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat decompose: %d %s", resp2.StatusCode, body2)
	}
	if err := json.Unmarshal(body2, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatalf("repeat decompose not cached: %s", body2)
	}

	// The hit is observable on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var stats service.Stats
	if err := json.NewDecoder(mresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 || stats.StoredGraphs != 1 {
		t.Fatalf("metrics = %+v, want 1 hit / 1 miss / 1 graph", stats)
	}
}

func TestServiceHTTPInlineGraphAndCarve(t *testing.T) {
	srv, _ := newTestServer(t)
	doc := map[string]any{"n": 4, "edges": [][]int{{0, 1}, {1, 2}, {2, 3}}}

	resp, body := postJSON(t, srv.URL+"/v1/carve", map[string]any{"graph": doc, "eps": 0.5, "seed": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("carve: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Kind   string  `json:"kind"`
		Eps    float64 `json:"eps"`
		Assign []int   `json:"assign"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "carve" || out.Eps != 0.5 || len(out.Assign) != 4 {
		t.Fatalf("carve response: %+v", out)
	}

	// An inline request registers its graph: by-hash follow-up works.
	g, err := graphio.FromDocument(&graphio.Document{N: 4, Edges: [][]int{{0, 1}, {1, 2}, {2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, srv.URL+"/v1/decompose", map[string]any{"hash": graphio.Hash(g)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("by-hash after inline: %d %s", resp.StatusCode, body)
	}
}

func TestServiceHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"no graph", "/v1/decompose", map[string]any{}, http.StatusBadRequest},
		{"unknown hash", "/v1/decompose", map[string]any{"hash": "feed"}, http.StatusNotFound},
		{"unknown algo", "/v1/decompose", map[string]any{"hash": "x", "algo": "nope"}, http.StatusBadRequest},
		{"bad eps", "/v1/carve", map[string]any{"graph": map[string]any{"n": 2, "edges": [][]int{{0, 1}}}, "eps": 7.0}, http.StatusBadRequest},
		{"bad graph doc", "/v1/decompose", map[string]any{"graph": map[string]any{"n": 1, "edges": [][]int{{0, 9}}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body missing: %s", tc.name, body)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/v1/decompose", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Wrong method on a typed route.
	resp, err = http.Get(srv.URL + "/v1/decompose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status %d, want 405", resp.StatusCode)
	}

	// Bad upload format + bad upload bytes.
	resp, err = http.Post(srv.URL+"/v1/graphs?format=hdf5", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/graphs?format=metis", "text/plain", strings.NewReader("not a graph"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad metis: status %d, want 400", resp.StatusCode)
	}
}

// TestServiceHTTPGraphGetAndCSRDownload covers GET /v1/graphs/{hash}:
// metadata by default, the serialized graph with ?format=, a binary CSR
// download that decodes back to the same graph, and 404 for unknown
// hashes.
func TestServiceHTTPGraphGetAndCSRDownload(t *testing.T) {
	srv, _ := newTestServer(t)
	g := graph.Grid(3, 4)

	var buf bytes.Buffer
	if err := graphio.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/graphs?format=csr", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Hash string `json:"hash"`
		N    int    `json:"n"`
		M    int    `json:"m"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || up.Hash != graphio.Hash(g) {
		t.Fatalf("csr upload: status %d, %+v", resp.StatusCode, up)
	}

	// Metadata GET.
	mresp, err := http.Get(srv.URL + "/v1/graphs/" + up.Hash)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Hash string `json:"hash"`
		N    int    `json:"n"`
		M    int    `json:"m"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || meta.N != g.N() || meta.M != g.M() || meta.Hash != up.Hash {
		t.Fatalf("graph GET: status %d, %+v", mresp.StatusCode, meta)
	}

	// Binary download round-trips.
	dresp, err := http.Get(srv.URL + "/v1/graphs/" + up.Hash + "?format=csr")
	if err != nil {
		t.Fatal(err)
	}
	if ct := dresp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("csr download content-type %q", ct)
	}
	got, err := graphio.ReadCSR(dresp.Body)
	dresp.Body.Close()
	if err != nil {
		t.Fatalf("downloaded snapshot does not decode: %v", err)
	}
	if graphio.Hash(got) != up.Hash {
		t.Fatal("downloaded snapshot decodes to a different graph")
	}

	// Unknown hash → 404; bad format → 400.
	nresp, err := http.Get(srv.URL + "/v1/graphs/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash status %d, want 404", nresp.StatusCode)
	}
	bresp, err := http.Get(srv.URL + "/v1/graphs/" + up.Hash + "?format=nope")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format status %d, want 400", bresp.StatusCode)
	}
}
