package main

// The serve workloads' traced pass. The program's own spans (route,
// proxy, cache tiers, compute, engine stages, app-run) reach an
// in-memory slog sink instead of being encoded; the benchmark adds a
// span around each shard's outer handler and around its local API
// handler. Everything is analysed after the run, so nothing but the
// append into the sink happens on the request path.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"strongdecomp/internal/obs"
)

// spanLine is one line of the spans file a traced run writes when it
// ends, times in microseconds from the start of the measured window.
// Serve spans carry the program's trace fields; library spans are the
// ops and their per-component runs.
type spanLine struct {
	Stage   string  `json:"stage"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Shard   string  `json:"shard,omitempty"`
	Trace   string  `json:"trace_id,omitempty"`
	Span    string  `json:"span_id,omitempty"`
	Hop     int     `json:"hop,omitempty"`
	Tier    string  `json:"tier,omitempty"`
	App     string  `json:"app,omitempty"`
	Path    string  `json:"path,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Op      int     `json:"op,omitempty"`
	RGUS    float64 `json:"rg_us,omitempty"`
	RGCalls int     `json:"rg_calls,omitempty"`
	Carves  int     `json:"carves,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeSpans writes one JSON line per span to path.
func writeSpans(path string, lines []spanLine) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanRec is one recorded span.
type spanRec struct {
	shard int
	trace string
	span  string
	hop   int
	stage string
	end   time.Time
	dur   time.Duration
	tier  string
	app   string
	path  string
	bytes int64 // response bytes (local spans)
}

func (s spanRec) interval() interval { return interval{s.end.Add(-s.dur), s.end} }

// serveTrace is the traced pass's span store.
type serveTrace struct {
	mu     sync.Mutex
	spans  []spanRec
	sinkNS atomic.Int64 // time spent inside the sink recording program spans
}

func (t *serveTrace) add(r spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

func (t *serveTrace) sinkTime() time.Duration { return time.Duration(t.sinkNS.Load()) }

// spanHandler is the slog.Handler of one shard's collector: it keeps
// "span" records and drops everything else.
type spanHandler struct {
	t     *serveTrace
	shard int
}

func (h spanHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }

func (h spanHandler) Handle(_ context.Context, r slog.Record) error {
	start := time.Now()
	if r.Message == "span" {
		rec := spanRec{shard: h.shard, end: r.Time}
		r.Attrs(func(a slog.Attr) bool {
			v := a.Value.Resolve()
			switch {
			case v.Kind() == slog.KindString:
				switch a.Key {
				case "trace_id":
					rec.trace = v.String()
				case "span_id":
					rec.span = v.String()
				case "stage":
					rec.stage = v.String()
				case "tier":
					rec.tier = v.String()
				case "app":
					rec.app = v.String()
				case "path":
					rec.path = v.String()
				}
			case a.Key == "hop" && v.Kind() == slog.KindInt64:
				rec.hop = int(v.Int64())
			case a.Key == "duration_ms" && v.Kind() == slog.KindFloat64:
				rec.dur = time.Duration(v.Float64() * float64(time.Millisecond))
			}
			return true
		})
		h.t.add(rec)
	}
	h.t.sinkNS.Add(int64(time.Since(start)))
	return nil
}

func (h spanHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h spanHandler) WithGroup(string) slog.Handler      { return h }

// wrap records a span named stage around next: "outer" around a shard's
// whole handler, where the trace is read back from the response header
// the collector middleware sets, and "local" around the API handler,
// where it is on the request context.
func (t *serveTrace) wrap(stage string, shardIdx int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		rec := spanRec{shard: shardIdx, stage: stage, end: time.Now(), path: r.URL.Path, bytes: cw.n}
		rec.dur = rec.end.Sub(start)
		tr, ok := obs.TraceFrom(r.Context())
		if !ok {
			tr, _ = obs.ParseTrace(w.Header().Get(obs.TraceHeader))
		}
		rec.trace, rec.span, rec.hop = tr.TraceID, tr.SpanID, tr.Hop
		t.add(rec)
	})
}

// countingWriter counts response bytes and keeps flushes flowing.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// lines returns every recorded span, set-up included, relative to from.
func (t *serveTrace) lines(from time.Time) []spanLine {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanLine, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanLine{
			Stage: s.stage, StartUS: us(s.end.Add(-s.dur).Sub(from)), DurUS: us(s.dur),
			Shard: fmt.Sprintf("s%d", s.shard), Trace: s.trace, Span: s.span, Hop: s.hop,
			Tier: s.tier, App: s.app, Path: s.path, Bytes: s.bytes,
		}
	}
	return out
}

// hopKey identifies the spans of one request on one shard: the program
// gives them one trace and span ID.
type hopKey struct {
	shard int
	trace string
	span  string
}

// report writes the service, httpapi, shard, obs and graphio layer
// metrics. Only spans that ended after from count, except the upload
// spans, which cover set-up too; d holds the counters over the measured
// window and requests the client requests it sent.
func (t *serveTrace) report(layer map[string]float64, from time.Time, sinkFrom time.Duration, d counters, requests int) {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[hopKey][]interval)
	routes := make(map[string][]spanRec) // by trace ID
	var (
		locals, proxies                       []spanRec
		lru, disk, peer, computes, appHits    int
		diskMS, computeMS, appRunMS, uploadMS []float64
		outerTotal                            time.Duration
		responseBytes                         int64
		responses                             int
	)
	for _, s := range spans {
		if s.stage == "local" && s.path == "/v1/graphs" {
			uploadMS = append(uploadMS, ms(s.dur))
		}
		if s.end.Before(from) {
			continue
		}
		key := hopKey{s.shard, s.trace, s.span}
		switch s.stage {
		case "local":
			locals = append(locals, s)
			responseBytes += s.bytes
			responses++
			continue
		case "outer":
			outerTotal += s.dur
			continue
		case "proxy":
			proxies = append(proxies, s)
			continue
		case "route":
			routes[s.trace] = append(routes[s.trace], s)
			continue
		case "cache":
			switch s.tier {
			case "lru":
				lru++
			case "disk":
				disk++
				diskMS = append(diskMS, ms(s.dur))
			case "peer":
				peer++
			}
			if s.app != "" {
				appHits++
			}
		case "compute":
			computes++
			computeMS = append(computeMS, ms(s.dur))
		case "app-run":
			computes++
			appRunMS = append(appRunMS, ms(s.dur))
		}
		children[key] = append(children[key], s.interval())
	}

	selfMS := make([]float64, 0, len(locals))
	for _, l := range locals {
		iv := l.interval()
		selfMS = append(selfMS, ms(l.dur-covered(iv, children[hopKey{l.shard, l.trace, l.span}])))
	}
	// A proxy span's child is the owner's route span one hop further on
	// the same trace and path; what remains is the hop itself.
	var proxyMS []float64
	for _, p := range proxies {
		for _, r := range routes[p.trace] {
			if r.hop == p.hop+1 && r.path == p.path && r.shard != p.shard {
				proxyMS = append(proxyMS, ms(p.dur-r.dur))
				break
			}
		}
	}

	share := func(count int, of int64) float64 {
		if of <= 0 {
			return 0
		}
		return float64(count) / float64(of)
	}
	layer["service.lru_hit_share"] = share(lru, d.lookups)
	layer["service.disk_hit_share"] = share(disk, d.lookups)
	layer["service.peer_hit_share"] = share(peer, d.lookups)
	layer["service.compute_share"] = share(computes, d.lookups)
	layer["service.dedup_share"] = share(int(d.dedup), d.lookups)
	layer["service.disk_hit_ms_p50"] = median(diskMS)
	layer["service.compute_ms_p50"] = median(computeMS)
	layer["service.app_hit_share"] = share(appHits, d.appLookups)
	layer["service.app_run_ms_p50"] = median(appRunMS)
	layer["httpapi.self_ms_p50"] = median(selfMS)
	if responses > 0 {
		layer["httpapi.response_bytes_mean"] = float64(responseBytes) / float64(responses)
	}
	layer["shard.proxied_share"] = share(int(d.proxied), int64(requests))
	layer["shard.proxy_ms_p50"] = median(proxyMS)
	if outerTotal > 0 {
		layer["obs.trace_overhead_share"] = (t.sinkTime() - sinkFrom).Seconds() / outerTotal.Seconds()
	}
	layer["graphio.upload_ms_p50"] = median(uploadMS)
}
