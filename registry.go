package strongdecomp

// This file is the public face of the algorithm registry: the Decomposer
// interface, RunOptions, the typed errors, and the Register/Lookup/
// Algorithms dispatch functions. The in-tree constructions self-register at
// init time; external packages extend the system the same way:
//
//	strongdecomp.Register("my-padded", func() strongdecomp.Decomposer {
//		return myPaddedDecomposer{}
//	})
//	d, _ := strongdecomp.Lookup("my-padded")
//	dec, _ := d.Decompose(ctx, g, &strongdecomp.RunOptions{Seed: 7})

import (
	"context"

	"strongdecomp/internal/engine"
	"strongdecomp/internal/registry"
)

// Params is the canonical description of one run — the single source of
// request defaults (Normalized), validation (Validate), and cache
// identity (Key / EncodeBinary) across the facade, the Engine, the
// serving layer, and the HTTP API. Build one and hand it to Run (or
// Engine.Run); the functional-options entry points are shims over it.
type Params = registry.Params

// Kind selects the operation a Params describes.
type Kind = registry.Kind

// Params kinds.
const (
	// KindCarve is a ball carving with boundary parameter Params.Eps.
	KindCarve = registry.KindCarve
	// KindDecompose is a full network decomposition.
	KindDecompose = registry.KindDecompose
)

// DefaultAlgorithm is the construction used when a Params names none.
const DefaultAlgorithm = registry.DefaultAlgorithm

// Outcome is the result of executing one Params: exactly one of Carving
// and Decomposition is set, matching Params.Kind, plus the metered round
// total when Params.Meter was set.
type Outcome = registry.Outcome

// DecodeParams reverses Params.EncodeBinary — the canonical binary
// encoding round-trips losslessly (see the registry fuzz target).
func DecodeParams(data []byte) (Params, error) { return registry.DecodeParams(data) }

// Engine runs decompositions over a worker pool: it decomposes the
// connected components of a graph concurrently and batches runs over many
// graphs. Run, BallCarve and Decompose run on a per-call Engine and
// NewService builds one for every algorithm, so the library, the CLIs and
// the service answer the same Params identically. Its methods are safe for
// concurrent use and honor context cancellation (errors match ErrCanceled).
type Engine = engine.Engine

// EngineOption configures NewEngine.
type EngineOption = engine.Option

// EngineStats is a point-in-time snapshot of an Engine's execution
// counters (see Engine.Stats); Counters flattens it for metrics endpoints.
type EngineStats = engine.Stats

// NewEngine returns an engine running the given construction over a worker
// pool.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithWorkers sets the worker-pool size (default runtime.GOMAXPROCS(0)).
func WithWorkers(n int) EngineOption { return engine.WithWorkers(n) }

// WithEngineAlgorithm selects the registered construction the engine runs
// (default the paper's "chang-ghaffari"). The name is resolved at run time,
// so constructions registered after NewEngine are reachable too.
func WithEngineAlgorithm(name string) EngineOption { return engine.WithAlgorithm(name) }

// Run executes one canonical Params on g through a per-call Engine, so it
// returns exactly what Engine.Run returns: p is normalized and validated,
// its algorithm resolved through the registry, and the connected
// components of g run concurrently with cancellation support. It is the
// v2 entry point subsuming BallCarveContext and DecomposeContext; a
// per-call engine keeps no scratch once the call returns.
func Run(ctx context.Context, g *Graph, p Params) (*Outcome, error) {
	return NewEngine().Run(ctx, g, p)
}

// Decomposer is a registered construction: a context-aware ball carving and
// network decomposition over a host graph. Implementations must be safe for
// concurrent use by multiple goroutines.
type Decomposer = registry.Decomposer

// RunOptions carries per-run parameters (seed, meter, node restriction).
// A nil *RunOptions is valid and means defaults.
type RunOptions = registry.RunOptions

// AlgorithmInfo describes a registered construction: identity, citation,
// model, and the paper-stated bounds printed by the benchmark tables.
type AlgorithmInfo = registry.Info

// Factory builds a Decomposer; Lookup invokes it on every resolution.
type Factory = registry.Factory

// DecomposerFuncs adapts plain carve/decompose functions to the Decomposer
// interface — the easiest way to register a new construction.
type DecomposerFuncs = registry.Funcs

// Typed errors returned by the registry and by canceled runs.
var (
	// ErrUnknownAlgorithm is returned when a name resolves to no
	// registered construction.
	ErrUnknownAlgorithm = registry.ErrUnknownAlgorithm
	// ErrCanceled matches errors returned by runs that observed context
	// cancellation or a deadline; the underlying ctx.Err() also matches.
	ErrCanceled = registry.ErrCanceled
	// ErrDuplicateAlgorithm is returned by Register on a name collision.
	ErrDuplicateAlgorithm = registry.ErrDuplicateAlgorithm
	// ErrInvalidParams marks a Params value that cannot be executed
	// (unknown kind, non-finite or out-of-range eps, negative node ids).
	ErrInvalidParams = registry.ErrInvalidParams
)

// Register adds a construction to the registry under name. Registered
// constructions are reachable from BallCarve/Decompose via
// WithAlgorithmName, from Lookup, from the Engine, and from the cmd tools'
// -algo flags.
func Register(name string, factory Factory) error { return registry.Register(name, factory) }

// Unregister removes a registered construction; intended for tests.
func Unregister(name string) { registry.Unregister(name) }

// Lookup resolves a registered construction by name; the error matches
// ErrUnknownAlgorithm when the name is unknown.
func Lookup(name string) (Decomposer, error) { return registry.Lookup(name) }

// Algorithms lists the registered construction names in presentation order.
func Algorithms() []string { return registry.Algorithms() }

// AlgorithmInfos lists the metadata of every registered construction in
// presentation order.
func AlgorithmInfos() []AlgorithmInfo { return registry.Infos() }
