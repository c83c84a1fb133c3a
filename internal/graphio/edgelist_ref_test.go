package graphio

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"strongdecomp/internal/graph"
)

// referenceReadEdgeList is the string-based edge-list reader ReadEdgeList
// replaced, kept verbatim as the oracle of FuzzEdgeListReference: every
// line costs sc.Text() and strings.Fields, and every field strconv.Atoi.
func referenceReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := lineScanner(r)
	b := graph.NewAutoBuilder() // infers node count as max endpoint + 1
	declared := 0               // "# n <count>" directive, 0 if absent
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '#' || text[0] == '%' {
			if d, ok, err := referenceEdgeListDirective(text); err != nil {
				return nil, fmt.Errorf("edgelist line %d: %w", line, err)
			} else if ok {
				declared = d
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("edgelist line %d: want 2 fields \"u v\", got %d", line, len(fields))
		}
		u, err := referenceParseNode(fields[0])
		if err != nil {
			return nil, fmt.Errorf("edgelist line %d: %w", line, err)
		}
		v, err := referenceParseNode(fields[1])
		if err != nil {
			return nil, fmt.Errorf("edgelist line %d: %w", line, err)
		}
		if u == v {
			return nil, fmt.Errorf("edgelist line %d: self-loop at node %d", line, u)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edgelist: %w", err)
	}
	if declared > 0 {
		// Errors if an edge already referenced a node >= declared.
		b.DeclareNodes(declared)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("edgelist: %w", err)
	}
	return g, nil
}

// referenceEdgeListDirective is the reference reader's "# n <count>"
// recognizer.
func referenceEdgeListDirective(text string) (int, bool, error) {
	fields := strings.Fields(text[1:])
	if len(fields) != 2 || fields[0] != "n" {
		return 0, false, nil // ordinary comment
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("bad node-count directive %q", text)
	}
	if n > MaxNodes {
		return 0, false, fmt.Errorf("declared %d nodes exceeds limit %d", n, MaxNodes)
	}
	return n, true, nil
}

// referenceParseNode is the reference reader's node-id parser.
func referenceParseNode(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative node id %d", v)
	}
	if v >= MaxNodes {
		return 0, fmt.Errorf("node id %d exceeds limit %d", v, MaxNodes)
	}
	return v, nil
}

// FuzzEdgeListReference is the differential test of the byte-level reader:
// on every input ReadEdgeList must accept exactly when the reference
// reader does, fail with the identical error text, and produce a graph
// with the identical content hash.
func FuzzEdgeListReference(f *testing.F) {
	for _, seed := range []string{
		"0 1\n1 2\n2 0\n",
		"+5 6\n", "-0 1\n", "1\t2\r\n", "1\v2\n", "1\f2\n", " 1 2 \n", "1 2\x85\n",
		"1\u00a02\n", "1 2\u0085\n", "\u00a01 2\n", "1 2\u2028\n",
		"12345678901234567890 1\n", "1 12345678901234567890\n", "99999999999999999999 1\n",
		"16777215 0\n", "16777216 0\n", "99999999 0\n", "000000000000000000003 1\n",
		"0007 1\n", "1 1\n", "1 2 3\n", "1\n", "a b\n", "1 b\n", "1 2a\n",
		"# n 5\n0 1\n", "% n 5\n0 1\n", "# n 2\n0 5\n", "# n -1\n", "# n 16777217\n", "# comment\n\n3 4\n",
		"\n\n \t\n", "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceReadEdgeList(bytes.NewReader(data))
		got, gotErr := ReadEdgeList(bytes.NewReader(data))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("reference error %v, ReadEdgeList error %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text %q, reference %q", gotErr, wantErr)
			}
			return
		}
		if Hash(got) != Hash(want) {
			t.Fatalf("hash %s (n=%d m=%d), reference %s (n=%d m=%d)",
				Hash(got), got.N(), got.M(), Hash(want), want.N(), want.M())
		}
	})
}
