package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/registry"
)

// FuzzDecodeRecord feeds arbitrary bytes and node counts to both codecs'
// decoders. Decoding never panics, and an accepted value fits n and
// re-encodes to a record that decodes to the same value. The seed corpus
// holds one record per codec and kind, encoded by the codecs themselves.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		// Decode under the key the record names, so mutations reach the
		// checks past the key match.
		var hdr struct {
			GraphHash string `json:"graph_hash"`
			ParamsKey []byte `json:"params_key"`
		}
		_ = json.Unmarshal(data, &hdr)
		key := cacheKey{hash: hdr.GraphHash, params: string(hdr.ParamsKey)}
		checkRecordRoundTrip(t, resultCodec, data, key, n)
		checkRecordRoundTrip(t, appCodec(false), data, key, n)
	})
}

// checkRecordRoundTrip checks one codec's contract on one record.
func checkRecordRoundTrip[V any](t *testing.T, c codec[V], data []byte, key cacheKey, n int) {
	t.Helper()
	v, ok := c.decode(data, key, n)
	if !ok {
		return
	}
	// A negative n (results only) checks the record against itself.
	if n >= 0 && !c.fits(v, n) {
		t.Fatalf("%s: accepted value does not fit n=%d: %+v", c.dir, n, v)
	}
	again, err := c.encode(key, v)
	if err != nil || again == nil {
		t.Fatalf("%s: accepted value does not re-encode: %v", c.dir, err)
	}
	back, ok := c.decode(again, key, n)
	if !ok {
		t.Fatalf("%s: re-encoded record rejected: %s", c.dir, again)
	}
	if !reflect.DeepEqual(v, back) {
		t.Fatalf("%s: round trip changed the value:\n%+v\n%+v", c.dir, v, back)
	}
}

// TestTierSpillWriteFailure blocks each tier's record path with a
// non-empty directory, so the rename in writeFileAtomic fails. The
// request still answers with a fresh compute, the failure is counted, no
// temp file is left behind, and a restarted service recomputes rather
// than serving anything from the blocked path.
func TestTierSpillWriteFailure(t *testing.T) {
	algo, count := registerStub(t, nil)
	g := graph.Cycle(10)
	hash := graphio.Hash(g)
	p := registry.Params{Algorithm: algo, Kind: registry.KindDecompose, Meter: true}
	ctx := context.Background()
	cases := []struct {
		name string
		path func(s *Service) string
		// serve answers one request and reports whether it was a hit.
		serve func(s *Service) (bool, error)
	}{
		{"result", func(s *Service) string {
			return s.results.path(decomposeKey(g, algo, 0))
		}, func(s *Service) (bool, error) {
			res, err := s.Decompose(ctx, &Request{Hash: hash})
			return err == nil && res.CacheHit, err
		}},
		{"app", func(s *Service) string {
			return s.answers.path(cacheKey{hash: hash, params: appParamsKey(AppMIS, p)})
		}, func(s *Service) (bool, error) {
			res, err := s.RunApp(ctx, AppMIS, &Request{Hash: hash})
			return err == nil && res.CacheHit, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for life := 0; life < 2; life++ {
				s, err := New(Config{DataDir: dir, DefaultAlgorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				s.PutGraph(g)
				block := tc.path(s)
				if life == 0 {
					if err := os.MkdirAll(filepath.Join(block, "occupant"), 0o755); err != nil {
						t.Fatal(err)
					}
				}
				before := count.Load()
				hit, err := tc.serve(s)
				if err != nil {
					t.Fatalf("life %d: %v", life, err)
				}
				if hit {
					t.Fatalf("life %d: served a hit from a blocked record path", life)
				}
				if tc.name == "result" && count.Load() != before+1 {
					t.Fatalf("life %d: backend ran %d times, want 1", life, count.Load()-before)
				}
				if got := s.Stats().Persist.SaveErrors; got != 1 {
					t.Fatalf("life %d: SaveErrors = %d, want 1", life, got)
				}
				entries, err := os.ReadDir(filepath.Dir(block))
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 1 || entries[0].Name() != filepath.Base(block) {
					t.Fatalf("life %d: record dir holds %v, want only the blocking directory", life, entries)
				}
				s.Close()
			}
		})
	}
}
