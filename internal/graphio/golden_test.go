package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"strongdecomp/internal/graph"
)

// goldenGraphs are the graphs whose content addresses and snapshot bytes
// are pinned below: a single node, a grid, an edge list whose "# n"
// directive adds trailing isolated nodes, a random connected graph and a
// long cycle (multi-byte varints, several hash chunks).
func goldenGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	el, err := ReadEdgeList(strings.NewReader("# n 7\n0 1\n1 2\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path-1":        graph.Path(1),
		"grid-3x4":      graph.Grid(3, 4),
		"edgelist-n7":   el,
		"connected-gnp": graph.ConnectedGnp(200, 0.03, 5),
		"cycle-5000":    graph.Cycle(5000),
	}
}

// TestGoldenContentAddresses pins Hash and the SHA-256 of WriteCSR's bytes.
// A hash names a graph's on-disk snapshot and routes its requests between
// shards, and a snapshot is read back by later builds, so neither encoding
// may change without a new hashDomain or SnapshotVersion. Round-trip
// checks cannot catch such a change; these values can.
func TestGoldenContentAddresses(t *testing.T) {
	golden := map[string]struct {
		n, m         int
		hash, csrSum string
	}{
		"path-1": {1, 0,
			"33766962be5e4b5c593ae044c059df761e23791f8abdbe6a9fbb0d2b71306fb8",
			"c1beaa7acc402de8b23a599f9fb5e109793bddbd99d02f09896013ab504ad904"},
		"grid-3x4": {12, 17,
			"8d49304ceb111b562d58c42557b3ca5fb3fe92addf3fd0ffa24a50a7e4ba13a1",
			"c78098ba1c6db18a0eb4a230b1946fcc75d2b78b0b6a2e34917028aa76f9e739"},
		"edgelist-n7": {7, 3,
			"3c193174d78ebdf243c511726e2bb93c10b4e83b7102b588548f0dd030f3f899",
			"eda08131519ddb04f2473ef1b7bfd4acfad1fa29a3a094a67b00dbb1675989b7"},
		"connected-gnp": {200, 794,
			"f0536ada78fa02148672fbbec0821676f1c5e9aeaa7380474ac20206680d2010",
			"000c09d21d84572cf70e49a473a5e291ebc5ba1689ab67d1eb28088348008689"},
		"cycle-5000": {5000, 5000,
			"4c802fd10a76b8eab4e0f062e8f071346715eee706d3f38128b4b08ebf85aa38",
			"1216496abd0dbbbd135781da2000f86ba02cbbc692c6406b37b9b8bd90fbaca3"},
	}
	for name, g := range goldenGraphs(t) {
		want := golden[name]
		if g.N() != want.n || g.M() != want.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", name, g.N(), g.M(), want.n, want.m)
		}
		if got := Hash(g); got != want.hash {
			t.Errorf("%s: Hash = %s, want %s", name, got, want.hash)
		}
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g); err != nil {
			t.Fatalf("%s: WriteCSR: %v", name, err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want.csrSum {
			t.Errorf("%s: sha256(WriteCSR) = %x, want %s", name, sum, want.csrSum)
		}
	}
}
