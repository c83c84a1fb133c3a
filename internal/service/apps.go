package service

// Serving MIS, (Δ+1) coloring, approximate diameter, and decomposition
// spanners over cached decompositions. RunApp answers through the app
// tier (tier.go) under the key (graph hash, app, Params.Key); runApp, its
// miss, resolves the decomposition through Service.Run — so it is computed
// at most once across every app that needs it — and runs the app.
//
// With Config.StrictApps set, no answer leaves the service unverified:
// fresh answers must pass verifyAppResult, and the app codec's verify
// hook quarantines a persisted record that fails it.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"strongdecomp/internal/apps"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/obs"
	"strongdecomp/internal/registry"
	"strongdecomp/internal/rounds"
)

// Typed errors of the applications tier; HTTP handlers map them with
// errors.Is.
var (
	// ErrUnknownApp marks requests naming an application the service does
	// not serve.
	ErrUnknownApp = errors.New("service: unknown application")
	// ErrAppVerification marks strict-mode verification failures: an app
	// answer that does not pass its verifier is never served.
	ErrAppVerification = errors.New("service: app result failed verification")
)

// The served application names — the {app} segment of POST /v2/apps/{app}.
const (
	AppMIS      = "mis"
	AppColoring = "coloring"
	AppDiameter = "diameter"
	AppSpanner  = "spanner"
)

// Apps lists the applications the service serves, sorted.
func Apps() []string {
	return []string{AppColoring, AppDiameter, AppMIS, AppSpanner}
}

// validApp reports whether app names a served application.
func validApp(app string) bool {
	switch app {
	case AppMIS, AppColoring, AppDiameter, AppSpanner:
		return true
	}
	return false
}

// appKeyPrefix domain-separates application cache keys from decomposition
// keys, so an app record can never collide with (or be confused for) a
// decomposition record of the same graph and parameters.
const appKeyPrefix = "strongdecomp/app/v1\n"

// appParamsKey is the params half of an app result's cache identity: the
// app name joined to the canonical decomposition Params.Key under the
// domain prefix. Two app requests share an answer exactly when they name
// the same app over the same graph, algorithm, and seed.
func appParamsKey(app string, p registry.Params) string {
	return appKeyPrefix + app + "\x00" + p.Key()
}

// AppResult is one served application answer. Slice payloads may be
// shared with the cache and other callers — treat them as immutable.
type AppResult struct {
	// GraphHash is the content hash the answer is cached under.
	GraphHash string
	// App names the application ("mis", "coloring", "diameter",
	// "spanner").
	App string
	// Algo / Seed identify the underlying decomposition run.
	Algo string
	Seed int64

	// InMIS is the MIS membership vector (AppMIS only).
	InMIS []bool
	// ColorOf is the per-node palette color (AppColoring only).
	ColorOf []int
	// PaletteSize is the (Δ+1) palette bound of the coloring (AppColoring
	// only).
	PaletteSize int
	// Diameter is the 2-sweep approximation (AppDiameter only): a lower
	// bound on the true diameter, which is at most twice it.
	Diameter int
	// SpannerEdges lists the spanner's edges as (u, v) pairs with u < v
	// (AppSpanner only); TreeEdges and CrossEdges split the count.
	SpannerEdges [][2]int
	TreeEdges    int
	CrossEdges   int

	// ScheduleCost is the C·D template cost of the underlying
	// decomposition on this graph (apps.ScheduleCost) — reported on every
	// app answer, so clients see what a color-by-color application pays.
	ScheduleCost int
	// Rounds is the simulated CONGEST cost of the app run itself.
	Rounds int64
	// Elapsed is the wall-clock time of the app run (decomposition
	// resolution excluded — that cost is reported by the decomposition's
	// own result and is usually amortized away).
	Elapsed time.Duration
	// CacheHit reports the answer came from the app cache (memory or
	// disk tier).
	CacheHit bool
	// Shared reports the answer was computed once by a concurrent
	// identical request and shared through the in-flight deduplicator.
	Shared bool
	// DecompCacheHit reports the underlying decomposition was served from
	// a cache tier (memory, disk, or peer) rather than freshly computed —
	// the amortization the applications tier exists for.
	DecompCacheHit bool
	// Verified reports the answer passed its verifier before serving
	// (strict mode only).
	Verified bool
}

// coversN reports whether the answer's per-node payload covers exactly n
// nodes — the revalidation applied to memory-cache hits, mirroring
// Result.coversN. Answers without per-node payloads (diameter, spanner)
// carry node ids instead; those are range-checked at decode time.
func (r *AppResult) coversN(n int) bool {
	switch r.App {
	case AppMIS:
		return len(r.InMIS) == n
	case AppColoring:
		return len(r.ColorOf) == n
	case AppDiameter:
		return r.Diameter >= 0
	case AppSpanner:
		for _, e := range r.SpannerEdges {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				return false
			}
		}
		return true
	}
	return false
}

// verifyAppResult gates a served answer on its verifier: VerifyMIS and
// VerifyColoring for the symmetry-breaking apps, shape checks for
// diameter and spanner (which have no independent verifier).
func verifyAppResult(g *graph.Graph, res *AppResult) error {
	switch res.App {
	case AppMIS:
		return apps.VerifyMIS(g, res.InMIS)
	case AppColoring:
		return apps.VerifyColoring(g, res.ColorOf, g.MaxDegree()+1)
	case AppDiameter:
		if res.Diameter < 0 || (g.N() > 0 && res.Diameter >= g.N()) {
			return fmt.Errorf("apps: diameter %d outside [0,%d)", res.Diameter, g.N())
		}
		return nil
	case AppSpanner:
		if res.TreeEdges < 0 || res.CrossEdges < 0 || res.TreeEdges+res.CrossEdges != len(res.SpannerEdges) {
			return fmt.Errorf("apps: spanner edge accounting %d+%d vs %d edges",
				res.TreeEdges, res.CrossEdges, len(res.SpannerEdges))
		}
		for _, e := range res.SpannerEdges {
			if e[0] < 0 || e[0] >= g.N() || e[1] < 0 || e[1] >= g.N() || e[0] == e[1] {
				return fmt.Errorf("apps: spanner edge %v outside graph of %d nodes", e, g.N())
			}
		}
		return nil
	}
	return fmt.Errorf("%w: %q", ErrUnknownApp, res.App)
}

// RunApp serves one application request: resolve the graph, consult the
// app cache tiers, and on a miss resolve the decomposition through the
// full serving path and run the application — once per key, however many
// identical requests arrive concurrently.
func (s *Service) RunApp(ctx context.Context, app string, req *Request) (*AppResult, error) {
	if !validApp(app) {
		return nil, fmt.Errorf("%w: %q (served: %v)", ErrUnknownApp, app, Apps())
	}
	p, err := s.params(registry.KindDecompose, req)
	if err != nil {
		return nil, err
	}
	// Validate the algorithm before creating its stats entry — same
	// discipline as the decomposition path: caller-supplied names that are
	// not registered must never reach the stats table or the cache key.
	if _, err := registry.Lookup(p.Algorithm); err != nil {
		return nil, err
	}
	st := s.stats.app(app)
	st.requests.Add(1)

	resolveStart := time.Now()
	g, hash, err := s.resolveGraph(req)
	if err != nil {
		st.errors.Add(1)
		return nil, err
	}
	obs.Span(ctx, "app-resolve", resolveStart,
		slog.String("app", app), slog.String("graph", hash))

	key := cacheKey{hash: hash, params: appParamsKey(app, p)}
	res, how, err := s.answers.lookup(ctx, st, key, g, req.Timeout, []slog.Attr{slog.String("app", app)},
		func(runCtx context.Context) (*AppResult, func() *AppResult, error) {
			out, err := s.runApp(runCtx, app, g, hash, p)
			if err != nil {
				return nil, nil, err
			}
			st.recordLatency(out.Elapsed)
			obs.ObserveApp(runCtx, app, out.Elapsed)
			return out, nil, nil
		})
	if err != nil {
		return nil, err
	}
	switch how {
	case servedCache:
		out := *res
		out.CacheHit = true
		return &out, nil
	case servedShared:
		out := *res
		out.Shared = true
		return &out, nil
	}
	return res, nil
}

// runApp resolves the decomposition through the canonical request path
// and executes the application on it.
func (s *Service) runApp(ctx context.Context, app string, g *graph.Graph, hash string, p registry.Params) (*AppResult, error) {
	// The decomposition rides the existing serving path end to end: LRU,
	// disk tier, peer cache, singleflight, compute — so however many apps
	// run over one graph, the decomposition is computed at most once.
	dres, err := s.Run(ctx, registry.KindDecompose, &Request{Hash: hash, Algo: p.Algorithm, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	d := dres.Decomposition
	if d == nil {
		return nil, fmt.Errorf("%w: decomposition request returned no decomposition", ErrInvalidRequest)
	}

	runStart := time.Now()
	meter := rounds.NewMeter()
	out := &AppResult{
		GraphHash:      hash,
		App:            app,
		Algo:           p.Algorithm,
		Seed:           p.Seed,
		DecompCacheHit: dres.CacheHit || dres.PeerHit || dres.Shared,
	}
	switch app {
	case AppMIS:
		out.InMIS, err = apps.MISContext(ctx, g, d, meter)
	case AppColoring:
		out.ColorOf, err = apps.ColorGraphContext(ctx, g, d, meter)
		out.PaletteSize = g.MaxDegree() + 1
	case AppDiameter:
		out.Diameter = apps.DiameterApprox(g, meter)
	case AppSpanner:
		var sp *apps.Spanner
		sp, err = apps.BuildSpannerContext(ctx, g, d, meter)
		if sp != nil {
			out.SpannerEdges, out.TreeEdges, out.CrossEdges = sp.Edges, sp.TreeEdges, sp.CrossEdges
		}
	}
	if err != nil {
		return nil, err
	}
	out.ScheduleCost = apps.ScheduleCost(g, d)
	out.Rounds = meter.Rounds()
	out.Elapsed = time.Since(runStart)
	if s.cfg.StrictApps {
		if err := verifyAppResult(g, out); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrAppVerification, err)
		}
		out.Verified = true
	}
	obs.SpanDuration(ctx, "app-run", out.Elapsed,
		slog.String("app", app), slog.String("algo", p.Algorithm),
		slog.Bool("decomp_cached", out.DecompCacheHit))
	return out, nil
}
