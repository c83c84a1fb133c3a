package cluster

import (
	"strings"
	"testing"

	"strongdecomp/internal/graph"
)

// TestCheckEdgeCarvingRejects feeds the edge checkers carvings of a 6-cycle
// that each break one property, and one that keeps them all.
func TestCheckEdgeCarvingRejects(t *testing.T) {
	g := graph.Cycle(6)
	halves := []int{0, 0, 0, 1, 1, 1}
	for _, tc := range []struct {
		name    string
		assign  []int
		k       int
		cut     [][2]int
		eps     float64
		maxDiam int
		want    string // "" for a valid carving
	}{
		{"valid", halves, 2, [][2]int{{2, 3}, {0, 5}}, 0.5, 2, ""},
		{"valid, pairs reversed", halves, 2, [][2]int{{3, 2}, {5, 0}}, 0.5, 2, ""},
		{"unassigned", []int{0, 0, 0, 1, 1, -1}, 2, [][2]int{{2, 3}, {0, 5}}, 0.5, -1, "unassigned"},
		{"empty cluster", halves, 3, [][2]int{{2, 3}, {0, 5}}, 0.5, -1, "empty"},
		{"non-edge cut", halves, 2, [][2]int{{2, 3}, {0, 5}, {0, 3}}, 0.5, -1, "not in graph"},
		{"crossing edge", halves, 2, [][2]int{{2, 3}}, 0.5, -1, "crosses clusters"},
		{"over budget", []int{0, 1, 2, 3, 4, 5}, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}, 0.5, -1, "exceeds eps"},
		{"disconnected", []int{0, 0, 1, 1, 0, 0}, 2, [][2]int{{1, 2}, {3, 4}, {0, 1}}, 1, -1, "disconnected"},
		{"too wide", halves, 2, [][2]int{{2, 3}, {0, 5}}, 0.5, 1, "diameter 2 exceeds 1"},
	} {
		err := CheckEdgeCarving(g, nil, tc.assign, tc.k, tc.cut, tc.eps, tc.maxDiam)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
