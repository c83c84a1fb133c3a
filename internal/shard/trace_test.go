package shard

// End-to-end tracing test: a 2-shard in-process cluster where every shard
// runs the full observability stack (collector middleware outside the
// proxy, WithObs + WithServedBy on the local API handler, slog JSON span
// records into a per-shard buffer) exactly as cmd/serve wires it. One
// request through a non-owner coordinator must produce span records on
// BOTH shards sharing one trace ID, with the hop counter incremented
// across the forward and the response naming the shard that served it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/service"
	"strongdecomp/internal/service/httpapi"
)

// spanSink is a thread-safe slog destination that parses span records
// back out for assertions.
type spanSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *spanSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// spanRecord is the subset of a span line the test asserts on.
type spanRecord struct {
	Msg     string `json:"msg"`
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Hop     int    `json:"hop"`
	Stage   string `json:"stage"`
	Scope   string `json:"scope"`
	Path    string `json:"path"`
}

// spans decodes every "span" record the sink holds.
func (s *spanSink) spans(t *testing.T) []spanRecord {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []spanRecord
	for _, line := range bytes.Split(s.buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec spanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("undecodable log line %q: %v", line, err)
		}
		if rec.Msg == "span" {
			out = append(out, rec)
		}
	}
	return out
}

// stages collects the distinct stage names of a record set.
func stages(recs []spanRecord) map[string]bool {
	out := make(map[string]bool)
	for _, r := range recs {
		out[r.Stage] = true
	}
	return out
}

func TestClusterTraceSpansAcrossShards(t *testing.T) {
	algo, _ := registerShardStub(t)

	const n = 2
	shards := make([]*testShard, n)
	sinks := make([]*spanSink, n)
	members := make([]Member, n)
	for i := range shards {
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		members[i] = Member{ID: fmt.Sprintf("s%d", i), URL: srv.URL}
		shards[i] = &testShard{member: members[i], srv: srv, swap: sw}
		sinks[i] = &spanSink{}
	}
	for i := range shards {
		sh := shards[i]
		svc, err := service.New(service.Config{DefaultAlgorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		c, err := NewCluster(Config{SelfID: sh.member.ID, Members: members, ProbeInterval: -1, Replicas: 0})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		sh.svc, sh.cluster = svc, c
		col := obs.NewCollector(slog.New(slog.NewJSONHandler(sinks[i], nil)))
		local := httpapi.New(svc,
			httpapi.WithReadiness(c.Ready),
			httpapi.WithClusterStats(c.Stats),
			httpapi.WithObs(col),
			httpapi.WithServedBy(sh.member.ID),
		)
		sh.swap.set(col.Middleware(c.Handler(svc, local)))
	}

	// Upload a graph, find its owner, and pick the OTHER shard as the
	// coordinator so the request must hop.
	g := graph.Path(16)
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, graphio.FormatJSON); err != nil {
		t.Fatal(err)
	}
	hash := graphio.Hash(g)
	owner, ok := shards[0].cluster.ring.OwnerAmong(hash, shards[0].cluster.alive)
	if !ok {
		t.Fatal("no owner")
	}
	ownerIdx := shardIndex(t, shards, owner.ID)
	coordIdx := (ownerIdx + 1) % n

	resp, err := http.Post(shards[coordIdx].srv.URL+"/v1/graphs?format=json", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	status, body := postJSON(t, shards[coordIdx].srv.URL+"/v1/decompose", map[string]any{"hash": hash})
	if status != http.StatusOK {
		t.Fatalf("decompose status %d: %s", status, body)
	}

	// Each shard writes its route span as its middleware unwinds, which
	// can be after the client has read the response: wait until both
	// shards hold the decompose request's route span.
	routed := func(sink *spanSink) bool {
		for _, r := range sink.spans(t) {
			if r.Stage == "route" && r.Path == "/v1/decompose" {
				return true
			}
		}
		return false
	}
	waitFor(t, "both shards' decompose route spans", func() bool {
		return routed(sinks[coordIdx]) && routed(sinks[ownerIdx])
	})
	coordSpans := sinks[coordIdx].spans(t)
	ownerSpans := sinks[ownerIdx].spans(t)
	if len(coordSpans) == 0 || len(ownerSpans) == 0 {
		t.Fatalf("want spans on both shards, got %d coordinator / %d owner", len(coordSpans), len(ownerSpans))
	}

	// Every span on either shard belongs to one of the two requests this
	// test made, and both hopped to the owner; the decompose trace is the
	// one whose coordinator spans carry the decompose path. Collect trace
	// IDs present on both shards.
	ownerTraces := make(map[string]bool)
	for _, r := range ownerSpans {
		ownerTraces[r.TraceID] = true
	}
	var shared string
	for _, r := range coordSpans {
		if ownerTraces[r.TraceID] && r.Path == "/v1/decompose" {
			shared = r.TraceID
			break
		}
	}
	if shared == "" {
		t.Fatalf("no trace ID shared across shards:\ncoordinator %+v\nowner %+v", coordSpans, ownerSpans)
	}

	var coordShared, ownerShared []spanRecord
	for _, r := range coordSpans {
		if r.TraceID == shared {
			coordShared = append(coordShared, r)
		}
	}
	for _, r := range ownerSpans {
		if r.TraceID == shared {
			ownerShared = append(ownerShared, r)
		}
	}
	if s := stages(coordShared); !s["proxy"] || !s["route"] {
		t.Errorf("coordinator spans missing proxy/route: %+v", coordShared)
	}
	if s := stages(ownerShared); !s["route"] || !s["compute"] {
		t.Errorf("owner spans missing route/compute: %+v", ownerShared)
	}
	// The owner computed on its engine, whose phases appear next to
	// compute: the path graph is one component, so split and
	// carve-rounds, and no merge.
	engineSpans := make(map[string]bool)
	for _, r := range ownerShared {
		if r.Scope == "engine" {
			engineSpans[r.Stage] = true
		}
	}
	if !engineSpans["split"] || !engineSpans["carve-rounds"] {
		t.Errorf("owner spans missing the engine's split/carve-rounds: %+v", ownerShared)
	}
	for _, r := range coordShared {
		if r.Hop != 0 {
			t.Errorf("coordinator span %+v: want hop 0", r)
		}
	}
	for _, r := range ownerShared {
		if r.Hop != 1 {
			t.Errorf("owner span %+v: want hop 1", r)
		}
	}

	// The response must name the shard that served it and echo the
	// coordinator's root trace, not the peer's child trace.
	req, err := http.NewRequest(http.MethodPost, shards[coordIdx].srv.URL+"/v1/decompose",
		bytes.NewReader([]byte(fmt.Sprintf(`{"hash":%q}`, hash))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "clienttrace:clientspan:0")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(httpapi.ServedByHeader); got != owner.ID {
		t.Errorf("%s = %q, want owner %q", httpapi.ServedByHeader, got, owner.ID)
	}
	if got := resp2.Header.Values(obs.TraceHeader); len(got) != 1 || got[0] != "clienttrace:clientspan:0" {
		t.Errorf("%s = %v, want the single root echo", obs.TraceHeader, got)
	}
}
