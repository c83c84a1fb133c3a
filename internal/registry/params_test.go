package registry

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestParamsNormalizedDefaults(t *testing.T) {
	p := Params{}.Normalized()
	if p.Algorithm != DefaultAlgorithm {
		t.Errorf("Algorithm = %q, want %q", p.Algorithm, DefaultAlgorithm)
	}
	if p.Kind != KindDecompose {
		t.Errorf("Kind = %q, want %q", p.Kind, KindDecompose)
	}
}

func TestParamsNormalizedClearsCarveOnlyFields(t *testing.T) {
	p := Params{Kind: KindDecompose, Eps: 0.5, Nodes: []int{1, 2}}.Normalized()
	if p.Eps != 0 || p.Nodes != nil {
		t.Errorf("decompose kept carve-only fields: eps %v nodes %v", p.Eps, p.Nodes)
	}
	c := Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{1, 2}}.Normalized()
	if c.Eps != 0.5 || len(c.Nodes) != 2 {
		t.Errorf("carve lost its fields: eps %v nodes %v", c.Eps, c.Nodes)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"zero value (defaults to decompose)", Params{}, true},
		{"carve valid", Params{Kind: KindCarve, Eps: 0.5}, true},
		{"carve eps one", Params{Kind: KindCarve, Eps: 1}, true},
		{"carve eps zero", Params{Kind: KindCarve}, false},
		{"carve eps negative", Params{Kind: KindCarve, Eps: -0.5}, false},
		{"carve eps above one", Params{Kind: KindCarve, Eps: 1.5}, false},
		{"carve eps NaN", Params{Kind: KindCarve, Eps: math.NaN()}, false},
		{"carve eps +Inf", Params{Kind: KindCarve, Eps: math.Inf(1)}, false},
		{"carve eps -Inf", Params{Kind: KindCarve, Eps: math.Inf(-1)}, false},
		{"unknown kind", Params{Kind: "paint"}, false},
		{"negative node", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{0, -3}}, false},
		{"decompose ignores eps", Params{Kind: KindDecompose, Eps: math.NaN()}, true},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected an error", tc.name)
			} else if !errors.Is(err, ErrInvalidParams) {
				t.Errorf("%s: error %v does not match ErrInvalidParams", tc.name, err)
			}
		}
	}
}

func TestParamsValidateFor(t *testing.T) {
	cases := []struct {
		name  string
		p     Params
		n     int
		valid bool
	}{
		{"all nodes", Params{Kind: KindCarve, Eps: 0.5}, 4, true},
		{"subset", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{3, 0, 2}}, 4, true},
		{"empty subset", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{}}, 4, true},
		{"decompose drops nodes", Params{Kind: KindDecompose, Nodes: []int{9, 9}}, 4, true},
		{"id equal to n", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{0, 4}}, 4, false},
		{"id far past n", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{0, 1, 99}}, 25, false},
		{"negative id", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{-1}}, 4, false},
		{"duplicate", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{0, 1, 1}}, 4, false},
		{"duplicate apart", Params{Kind: KindCarve, Eps: 0.5, Nodes: []int{2, 0, 2}}, 4, false},
		{"invalid eps", Params{Kind: KindCarve, Nodes: []int{0}}, 4, false},
	}
	for _, tc := range cases {
		err := tc.p.ValidateFor(tc.n)
		switch {
		case tc.valid && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case !tc.valid && !errors.Is(err, ErrInvalidParams):
			t.Errorf("%s: error %v, want ErrInvalidParams", tc.name, err)
		}
	}
}

func TestParamsEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Params{
		{},
		Params{}.Normalized(),
		{Algorithm: "mpx", Kind: KindCarve, Eps: 0.25, Seed: -7, Meter: true},
		{Algorithm: "sequential", Kind: KindDecompose, Seed: 1 << 40},
		{Kind: KindCarve, Eps: math.NaN(), Nodes: []int{0, 5, 2}},
	}
	for _, p := range cases {
		enc := p.EncodeBinary()
		got, err := DecodeParams(enc)
		if err != nil {
			t.Fatalf("DecodeParams(%+v): %v", p, err)
		}
		if !paramsEqual(got, p) {
			t.Errorf("round trip changed %+v into %+v", p, got)
		}
		if !bytes.Equal(got.EncodeBinary(), enc) {
			t.Errorf("re-encoding %+v is not byte-stable", p)
		}
	}
}

func TestParamsKeyCanonical(t *testing.T) {
	// Equivalent requests — defaults spelled out or left empty, decompose
	// eps set or not — must share one cache identity.
	a := Params{Kind: KindDecompose, Eps: 0.5, Seed: 3}
	b := Params{Algorithm: DefaultAlgorithm, Seed: 3}
	if a.Key() != b.Key() {
		t.Error("equivalent decompose requests have different keys")
	}
	// Distinct requests must not collide.
	distinct := []Params{
		{Kind: KindCarve, Eps: 0.5},
		{Kind: KindCarve, Eps: 0.25},
		{Kind: KindCarve, Eps: 0.5, Seed: 1},
		{Kind: KindCarve, Eps: 0.5, Meter: true},
		{Kind: KindCarve, Eps: 0.5, Nodes: []int{1}},
		{Kind: KindDecompose},
		{Kind: KindDecompose, Algorithm: "mpx"},
	}
	seen := make(map[string]int)
	for i, p := range distinct {
		k := p.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("params %d and %d share a key", i, j)
		}
		seen[k] = i
	}
}

func TestDecodeParamsRejectsCorruptInput(t *testing.T) {
	enc := Params{Algorithm: "mpx", Kind: KindCarve, Eps: 0.5, Nodes: []int{1, 2}}.EncodeBinary()
	if _, err := DecodeParams(enc[:len(enc)-1]); err == nil {
		t.Error("truncated encoding decoded")
	}
	if _, err := DecodeParams(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeParams([]byte("not a params blob")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := DecodeParams(nil); err == nil {
		t.Error("empty input decoded")
	}
}

// paramsEqual compares Params treating NaN eps as equal by bit pattern and
// nil/empty Nodes as distinct only when lengths differ.
func paramsEqual(a, b Params) bool {
	if a.Algorithm != b.Algorithm || a.Kind != b.Kind || a.Seed != b.Seed || a.Meter != b.Meter {
		return false
	}
	if math.Float64bits(a.Eps) != math.Float64bits(b.Eps) {
		return false
	}
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}
