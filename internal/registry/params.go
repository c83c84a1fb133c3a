package registry

// This file is the canonical request shape of the v2 run API: one Params
// value describes a whole decomposition or ball-carving run (algorithm,
// kind, eps, seed, node restriction, meter opt-in) and is the single
// source of request defaults (Normalized), request validation (Validate),
// and cache identity (the canonical binary encoding behind Key). The
// facade, the Engine, the serving layer, and the HTTP API all resolve
// their inputs into a Params and hand it to the Engine
// (internal/engine); the legacy (eps float64, *RunOptions) signatures
// survive only as thin shims.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"strongdecomp/internal/cluster"
)

// ErrInvalidParams marks a Params value that cannot be executed (unknown
// kind, non-finite or out-of-range eps, node ids that are negative, not
// nodes of the graph, or repeated). The serving
// layer wraps it into its own ErrInvalidRequest.
var ErrInvalidParams = errors.New("strongdecomp: invalid params")

// Kind selects the operation a Params value describes.
type Kind string

const (
	// KindCarve is a ball carving with boundary parameter Eps.
	KindCarve Kind = "carve"
	// KindDecompose is a full network decomposition.
	KindDecompose Kind = "decompose"
)

// DefaultAlgorithm is the construction used when a Params names none: the
// paper's deterministic Theorem 2.2/2.3 construction.
const DefaultAlgorithm = "chang-ghaffari"

// Params is the canonical description of one run. It is a pure value:
// comparable field-by-field, independent of any execution backend, and
// canonically encodable (EncodeBinary), which is what makes it usable as a
// cache key end to end — the same Params that validates a CLI flag set or
// an HTTP body also addresses the serving layer's result cache.
//
// The zero value is not directly runnable; call Normalized to fill
// defaults (algorithm, kind) before Validate or manual dispatch. The
// Engine normalizes internally.
type Params struct {
	// Algorithm is a registry name; empty means DefaultAlgorithm.
	Algorithm string
	// Kind is the operation; empty means KindDecompose.
	Kind Kind
	// Eps is the carving boundary parameter, in (0, 1]. Decompositions
	// take no eps; Normalized zeroes it so equivalent requests encode
	// identically.
	Eps float64
	// Seed drives the randomized constructions; deterministic ones ignore
	// it. Every value — including 0 — is passed through verbatim.
	Seed int64
	// Nodes restricts a carving to the subgraph induced by these nodes
	// (nil = all nodes). Decompositions always cover the whole graph.
	Nodes []int
	// Meter opts into simulated CONGEST round metering; the accumulated
	// total is reported on Outcome.Rounds.
	Meter bool
}

// Normalized returns p with defaults filled and non-parameters cleared:
// an empty Algorithm becomes DefaultAlgorithm, an empty Kind becomes
// KindDecompose, and a decomposition's Eps and Nodes are zeroed (they are
// carve-only parameters and must not split the cache identity of
// equivalent requests).
func (p Params) Normalized() Params {
	if p.Algorithm == "" {
		p.Algorithm = DefaultAlgorithm
	}
	if p.Kind == "" {
		p.Kind = KindDecompose
	}
	if p.Kind == KindDecompose {
		p.Eps = 0
		p.Nodes = nil
	}
	return p
}

// Validate reports whether p describes an executable run. Validation is
// applied to the normalized form, so callers may validate raw inputs
// directly. Algorithm existence is deliberately not checked here — Params
// stays a pure value; Lookup resolves (and rejects) names at dispatch.
func (p Params) Validate() error {
	n := p.Normalized()
	switch n.Kind {
	case KindCarve:
		if math.IsNaN(n.Eps) || math.IsInf(n.Eps, 0) {
			return fmt.Errorf("%w: eps %v is not finite", ErrInvalidParams, n.Eps)
		}
		if !(n.Eps > 0 && n.Eps <= 1) {
			return fmt.Errorf("%w: eps %v outside (0, 1]", ErrInvalidParams, n.Eps)
		}
	case KindDecompose:
		// Eps and Nodes were cleared by Normalized.
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrInvalidParams, n.Kind)
	}
	for i, v := range n.Nodes {
		if v < 0 {
			return fmt.Errorf("%w: nodes[%d] = %d is negative", ErrInvalidParams, i, v)
		}
	}
	return nil
}

// ValidateFor is Validate for a run on an n-node graph: it also rejects a
// node restriction that names an id outside [0, n) or names a node twice,
// which the constructions index by without checking.
func (p Params) ValidateFor(n int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	nodes := p.Normalized().Nodes
	if nodes == nil {
		return nil
	}
	seen := make([]bool, n)
	for i, v := range nodes {
		if v >= n {
			return fmt.Errorf("%w: nodes[%d] = %d is not a node of a %d-node graph", ErrInvalidParams, i, v, n)
		}
		if seen[v] {
			return fmt.Errorf("%w: node %d appears twice in nodes", ErrInvalidParams, v)
		}
		seen[v] = true
	}
	return nil
}

// paramsDomain versions the canonical encoding; bump it if the scheme
// changes so stale cache identities can never collide with fresh ones.
const paramsDomain = "strongdecomp/params/v2\n"

// AppendBinary appends the canonical binary encoding of p to b and returns
// the extended slice. The encoding is total and injective over field
// values (NaN eps encodes by bit pattern), so it doubles as a cache key;
// it deliberately does NOT normalize — callers wanting the canonical
// identity of a request encode p.Normalized() (which Key does).
func (p Params) AppendBinary(b []byte) []byte {
	b = append(b, paramsDomain...)
	b = binary.AppendUvarint(b, uint64(len(p.Algorithm)))
	b = append(b, p.Algorithm...)
	b = binary.AppendUvarint(b, uint64(len(p.Kind)))
	b = append(b, p.Kind...)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Eps))
	b = binary.AppendVarint(b, p.Seed)
	if p.Meter {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Nodes)))
	for _, v := range p.Nodes {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// EncodeBinary returns the canonical binary encoding of p.
func (p Params) EncodeBinary() []byte { return p.AppendBinary(nil) }

// Key returns the canonical cache identity of p: the binary encoding of
// its normalized form, as a string so it can key ordinary Go maps. Two
// Params have equal Keys iff they describe the same run.
func (p Params) Key() string { return string(p.Normalized().EncodeBinary()) }

// DecodeParams reverses EncodeBinary. It rejects trailing bytes, wrong
// domains, and truncated fields, so encode→decode→encode is the identity
// on every value EncodeBinary produces (the property pinned by the fuzz
// target). Decoded values are not validated — run them through Validate.
func DecodeParams(data []byte) (Params, error) {
	var p Params
	d := paramsDecoder{buf: data}
	if err := d.expect(paramsDomain); err != nil {
		return p, err
	}
	var err error
	if p.Algorithm, err = d.str("algorithm"); err != nil {
		return p, err
	}
	kind, err := d.str("kind")
	if err != nil {
		return p, err
	}
	p.Kind = Kind(kind)
	if p.Eps, err = d.float("eps"); err != nil {
		return p, err
	}
	if p.Seed, err = d.varint("seed"); err != nil {
		return p, err
	}
	meter, err := d.byte("meter")
	if err != nil {
		return p, err
	}
	if meter > 1 {
		return p, fmt.Errorf("params: meter byte %d not 0 or 1", meter)
	}
	p.Meter = meter == 1
	count, err := d.uvarint("nodes count")
	if err != nil {
		return p, err
	}
	// Each node costs at least one encoded byte; an impossible count means
	// a corrupt or hostile input, not a huge allocation.
	if count > uint64(len(d.buf)) {
		return p, fmt.Errorf("params: nodes count %d exceeds remaining %d bytes", count, len(d.buf))
	}
	if count > 0 {
		p.Nodes = make([]int, count)
		for i := range p.Nodes {
			v, err := d.varint("node")
			if err != nil {
				return p, err
			}
			p.Nodes[i] = int(v)
		}
	}
	if len(d.buf) != 0 {
		return p, fmt.Errorf("params: %d trailing bytes", len(d.buf))
	}
	return p, nil
}

// paramsDecoder is a cursor over an encoded Params.
type paramsDecoder struct{ buf []byte }

func (d *paramsDecoder) expect(domain string) error {
	if len(d.buf) < len(domain) || string(d.buf[:len(domain)]) != domain {
		return fmt.Errorf("params: missing domain prefix %q", domain)
	}
	d.buf = d.buf[len(domain):]
	return nil
}

func (d *paramsDecoder) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("params: truncated %s", field)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *paramsDecoder) varint(field string) (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("params: truncated %s", field)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *paramsDecoder) str(field string) (string, error) {
	n, err := d.uvarint(field + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", fmt.Errorf("params: %s length %d exceeds remaining %d bytes", field, n, len(d.buf))
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func (d *paramsDecoder) float(field string) (float64, error) {
	if len(d.buf) < 8 {
		return 0, fmt.Errorf("params: truncated %s", field)
	}
	bits := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return math.Float64frombits(bits), nil
}

func (d *paramsDecoder) byte(field string) (byte, error) {
	if len(d.buf) < 1 {
		return 0, fmt.Errorf("params: truncated %s", field)
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

// StageTiming is one phase of a run's wall-clock breakdown. The paper's
// constructions decompose naturally into a component split, the
// ball-carving rounds, and a merge; exposing those as first-class timings
// (instead of one opaque elapsed total) is what lets per-phase costs be
// compared against the per-round analysis.
type StageTiming struct {
	// Name identifies the phase ("split", "carve-rounds", "merge").
	Name string `json:"name"`
	// Elapsed is the phase's wall-clock duration.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Outcome is the result of executing one Params: exactly one of Carving
// and Decomposition is set, matching Params.Kind. It is the canonical
// result shape shared by the Engine, the facade, and the serving layer.
type Outcome struct {
	// Params is the normalized value the run executed under.
	Params Params
	// Carving is set for KindCarve runs.
	Carving *cluster.Carving
	// Decomposition is set for KindDecompose runs.
	Decomposition *cluster.Decomposition
	// Rounds is the simulated CONGEST round total when Params.Meter was
	// set (0 otherwise).
	Rounds int64
	// Stages is the engine's per-phase wall-clock breakdown of the run
	// (split, carve-rounds, merge). It is populated only when the
	// caller's context carries an observability collector — nil
	// otherwise, so un-instrumented runs pay nothing for it.
	Stages []StageTiming
}
