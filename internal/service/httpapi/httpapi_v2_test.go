package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/service"
)

// waitJobState polls GET /v2/jobs/{id} until ok accepts the snapshot.
func waitJobState(t *testing.T, base, id string, ok func(jobResponse) bool) jobResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last jobResponse
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v2/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: status %d, %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &last); err != nil {
			t.Fatal(err)
		}
		if ok(last) {
			return last
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state; last: %+v", id, last)
	return last
}

// TestV2JobSubmitPollResult drives the async happy path over the wire:
// submit → 202 queued/running → poll to done → fetch the result both as
// one document and as an NDJSON stream.
func TestV2JobSubmitPollResult(t *testing.T) {
	srv, algo := newTestServer(t)

	resp, body := postJSON(t, srv.URL+"/v2/jobs", map[string]any{
		"kind":  "decompose",
		"graph": map[string]any{"n": 6, "edges": [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		"algo":  algo,
		"seed":  3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub jobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || (sub.State != "queued" && sub.State != "running" && sub.State != "done") {
		t.Fatalf("submit answered %+v", sub)
	}
	if sub.Kind != "decompose" || sub.Algo != algo {
		t.Fatalf("submit echoed wrong params: %+v", sub)
	}

	j := waitJobState(t, srv.URL, sub.ID, func(j jobResponse) bool { return j.State == "done" })
	if j.ResultURL == "" {
		t.Fatal("done job has no result_url")
	}

	// Result as one JSON document.
	resp2, err := http.Get(srv.URL + j.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp2.StatusCode, data)
	}
	var res struct {
		Kind   string `json:"kind"`
		Assign []int  `json:"assign"`
		K      int    `json:"k"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "decompose" || len(res.Assign) != 6 {
		t.Fatalf("result document wrong: %s", data)
	}

	// Result as an NDJSON stream.
	resp3, err := http.Get(srv.URL + j.ResultURL + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	stream, err := readBodyStream(resp3.Body)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Header.Kind != "decompose" || stream.Header.N != 6 {
		t.Fatalf("stream header wrong: %+v", stream.Header)
	}
	assign, err := stream.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != len(res.Assign) {
		t.Fatalf("streamed assignment length %d vs %d", len(assign), len(res.Assign))
	}
	for v := range assign {
		if assign[v] != res.Assign[v] {
			t.Fatalf("streamed and inline assignments disagree at node %d", v)
		}
	}
}

// TestV2JobCancel cancels over the wire and checks the terminal state.
func TestV2JobCancel(t *testing.T) {
	srv, algo := newTestServer(t)

	resp, body := postJSON(t, srv.URL+"/v2/jobs", map[string]any{
		"graph": map[string]any{"n": 4, "edges": [][]int{{0, 1}, {1, 2}, {2, 3}}},
		"algo":  algo,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub jobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+sub.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %s", resp2.StatusCode, data)
	}
	// The stub may already have finished — either terminal state is
	// legitimate; what matters is the job settles and stays addressable.
	j := waitJobState(t, srv.URL, sub.ID, func(j jobResponse) bool {
		return j.State == "done" || j.State == "canceled" || j.State == "failed"
	})
	if j.State == "failed" {
		t.Fatalf("job failed: %s", j.Error)
	}
}

// TestV2JobErrors covers the error surface: malformed submissions → 400,
// unknown IDs → 404, queue backpressure → 429, result of an unfinished
// job → 409/410.
func TestV2JobErrors(t *testing.T) {
	srv, algo := newTestServer(t)

	// Malformed: NaN eps is not even JSON — use out-of-range eps instead.
	resp, body := postJSON(t, srv.URL+"/v2/jobs", map[string]any{
		"kind": "carve", "eps": 7.5,
		"graph": map[string]any{"n": 2, "edges": [][]int{{0, 1}}},
		"algo":  algo,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad eps submit status %d: %s", resp.StatusCode, body)
	}
	// Malformed: negative timeout.
	resp, body = postJSON(t, srv.URL+"/v2/jobs", map[string]any{
		"graph": map[string]any{"n": 2, "edges": [][]int{{0, 1}}},
		"algo":  algo, "timeout_ms": -5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout submit status %d: %s", resp.StatusCode, body)
	}
	// Malformed: unknown kind.
	resp, body = postJSON(t, srv.URL+"/v2/jobs", map[string]any{
		"kind":  "paint",
		"graph": map[string]any{"n": 2, "edges": [][]int{{0, 1}}},
		"algo":  algo,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind submit status %d: %s", resp.StatusCode, body)
	}

	// Unknown job IDs.
	for _, probe := range []string{"/v2/jobs/jnope", "/v2/jobs/jnope/result"} {
		resp, err := http.Get(srv.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d", probe, resp.StatusCode)
		}
	}
}

// TestV2QueueBackpressure fills a one-slot queue behind a blocked worker
// and checks the wire answers 429.
func TestV2QueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 1)
	algo := registerBlockingStub(t, gate, started)
	svc, err := service.New(service.Config{
		DefaultAlgorithm: algo, JobWorkers: 1, JobQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(svc))
	t.Cleanup(srv.Close)

	doc := map[string]any{"graph": map[string]any{"n": 3, "edges": [][]int{{0, 1}, {1, 2}}}, "algo": algo}
	submit := func(seed int64) int {
		doc["seed"] = seed
		resp, _ := postJSON(t, srv.URL+"/v2/jobs", doc)
		return resp.StatusCode
	}
	if code := submit(1); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	<-started // worker occupied
	if code := submit(2); code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	if code := submit(3); code != http.StatusTooManyRequests {
		t.Fatalf("overfull submit status %d, want 429", code)
	}
}

// readBodyStream decodes an NDJSON body via graphio's stream reader.
func readBodyStream(r io.Reader) (*graphio.StreamResult, error) {
	return graphio.ReadClusterStream(r)
}

// registerBlockingStub registers a decomposer that blocks until gate
// closes (or its context dies), signalling each start on started.
func registerBlockingStub(t *testing.T, gate, started chan struct{}) string {
	t.Helper()
	algo := fmt.Sprintf("http-block-stub-%s", t.Name())
	err := registry.Register(algo, func() registry.Decomposer {
		return registry.Funcs{
			Meta: registry.Info{Name: algo, Model: "deterministic", Diameter: "strong"},
			DecomposeFunc: func(ctx context.Context, g *graph.Graph, opts registry.RunOptions) (*cluster.Decomposition, error) {
				started <- struct{}{}
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, registry.CtxErr(ctx)
				}
				return &cluster.Decomposition{Assign: make([]int, g.N()), Color: []int{0}, K: 1, Colors: 1}, nil
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { registry.Unregister(algo) })
	return algo
}

// TestV1TimeoutField: the shared computeRequest carries timeout_ms into
// the synchronous endpoints too — a negative value is rejected.
func TestV1TimeoutField(t *testing.T) {
	srv, algo := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/decompose", map[string]any{
		"graph": map[string]any{"n": 2, "edges": [][]int{{0, 1}}},
		"algo":  algo, "timeout_ms": -1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "timeout") {
		t.Fatalf("error does not mention the timeout: %s", body)
	}
}

// TestV2ResultStreamFalsy: ?stream=0 and ?stream=false keep answering the
// plain JSON document — only a truthy value selects NDJSON.
func TestV2ResultStreamFalsy(t *testing.T) {
	srv, algo := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v2/jobs", map[string]any{
		"graph": map[string]any{"n": 3, "edges": [][]int{{0, 1}, {1, 2}}},
		"algo":  algo,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub jobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, srv.URL, sub.ID, func(j jobResponse) bool { return j.State == "done" })

	for _, q := range []string{"?stream=0", "?stream=false", ""} {
		r, err := http.Get(srv.URL + "/v2/jobs/" + sub.ID + "/result" + q)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%q answered content type %q, want the JSON document", q, ct)
		}
		var doc struct {
			Assign []int `json:"assign"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Assign) != 3 {
			t.Fatalf("%q did not answer the result document: %s", q, data)
		}
	}
	for _, q := range []string{"?stream=1", "?stream=true"} {
		r, err := http.Get(srv.URL + "/v2/jobs/" + sub.ID + "/result" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%q answered content type %q, want NDJSON", q, ct)
		}
	}
}

// TestV2JobIDNamesShard pins the job-ID format: with WithServedBy the
// wire ID is "<shard>.<service id>" in the 202, every poll and
// result_url, and every job endpoint takes it back; without it the ID is
// the bare service ID. An ID prefixed with another shard (or, in cluster
// mode, missing this shard's prefix) is an unknown job here — never a
// lookup under the stripped service ID.
func TestV2JobIDNamesShard(t *testing.T) {
	doc := map[string]any{"n": 4, "edges": [][]int{{0, 1}, {1, 2}, {2, 3}}}
	for _, shard := range []string{"", "s0", "zone.a"} {
		srv, algo := newOptsServer(t, WithServedBy(shard))
		resp, body := postJSON(t, srv.URL+"/v2/jobs", map[string]any{"graph": doc, "algo": algo})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("shard %q: submit status %d: %s", shard, resp.StatusCode, body)
		}
		var sub jobResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		got, id := JobShard(sub.ID)
		if got != shard || id == "" || strings.Contains(id, ".") {
			t.Fatalf("shard %q: job ID %q splits into (%q, %q)", shard, sub.ID, got, id)
		}
		if got := resp.Header.Get(ServedByHeader); got != shard {
			t.Fatalf("shard %q: %s is %q", shard, ServedByHeader, got)
		}

		j := waitJobState(t, srv.URL, sub.ID, func(j jobResponse) bool { return j.State == "done" })
		if j.ID != sub.ID || j.ResultURL != "/v2/jobs/"+sub.ID+"/result" {
			t.Fatalf("shard %q: poll answered id %q, result_url %q", shard, j.ID, j.ResultURL)
		}
		if status, _, data := get(t, srv.URL+j.ResultURL); status != http.StatusOK {
			t.Fatalf("shard %q: result_url: status %d: %s", shard, status, data)
		}
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/jobs/"+sub.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %q: cancel of a done job: status %d", shard, resp.StatusCode)
		}

		foreign := []string{"s9." + id}
		if shard != "" {
			foreign = append(foreign, id)
		}
		for _, wireID := range foreign {
			for _, probe := range []struct{ method, path string }{
				{http.MethodGet, "/v2/jobs/" + wireID},
				{http.MethodGet, "/v2/jobs/" + wireID + "/result"},
				{http.MethodDelete, "/v2/jobs/" + wireID},
			} {
				req, _ := http.NewRequest(probe.method, srv.URL+probe.path, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(data), wireID) {
					t.Fatalf("shard %q: %s %s: status %d (%s), want a 404 naming the ID", shard, probe.method, probe.path, resp.StatusCode, data)
				}
			}
		}
	}
}
