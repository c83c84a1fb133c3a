package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"strongdecomp"
	"strongdecomp/internal/graph"
	"strongdecomp/internal/graphio"
	"strongdecomp/internal/service"
)

// TestServiceHTTPDecomposeSplitsComponents decomposes a two-component
// graph — a 30-cycle and a 6×6 grid, the graph of CI's CLI-versus-server
// step — over /v1/decompose with seed 7 and checks that the answer is the
// library's: the service runs on an engine, which decomposes each
// component separately (component i with seed 7+i) and merges them, so
// assign, color and the metered rounds must equal strongdecomp.Run's.
func TestServiceHTTPDecomposeSplitsComponents(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(New(svc))
	t.Cleanup(srv.Close)

	g := graph.DisjointUnion(graph.Cycle(30), graph.Grid(6, 6))
	for _, algo := range []string{"chang-ghaffari", "mpx"} {
		t.Run(algo, func(t *testing.T) {
			want, err := strongdecomp.Run(context.Background(), g, strongdecomp.Params{Algorithm: algo, Seed: 7, Meter: true})
			if err != nil {
				t.Fatal(err)
			}
			resp, body := postJSON(t, srv.URL+"/v1/decompose", map[string]any{
				"graph": graphio.ToDocument(g), "algo": algo, "seed": 7,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var got computeResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			d := want.Decomposition
			if got.K != d.K || got.Colors != d.Colors {
				t.Errorf("served k=%d colors=%d, library k=%d colors=%d", got.K, got.Colors, d.K, d.Colors)
			}
			if !slices.Equal(got.Assign, d.Assign) {
				t.Errorf("served assign differs from the library's:\n%v\n%v", got.Assign, d.Assign)
			}
			if !slices.Equal(got.Color, d.Color) {
				t.Errorf("served color differs from the library's:\n%v\n%v", got.Color, d.Color)
			}
			if got.Rounds != want.Rounds {
				t.Errorf("served rounds %d, library %d", got.Rounds, want.Rounds)
			}
		})
	}
}
