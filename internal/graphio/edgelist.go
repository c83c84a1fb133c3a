package graphio

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"strongdecomp/internal/graph"
)

// ReadEdgeList parses a whitespace edge list: one "u v" pair per line with
// 0-based node ids. Blank lines are skipped; lines starting with '#' or '%'
// are comments, except the directive "# n <count>", which pins the node
// count so graphs with trailing isolated nodes round-trip. Without the
// directive the node count is max(endpoint)+1. Duplicate edges and swapped
// orientations are canonicalized away by the graph builder. Edges stream
// straight into the builder's packed edge buffer — no intermediate edge
// list is materialized.
//
// A line of two short decimal digit runs amid ASCII whitespace (the lines
// WriteEdgeList emits, and nearly every line of real input) is
// parsed straight from the scanner's buffer without allocating; every
// other line — comments, directives, signs, non-ASCII bytes, long digit
// runs, a wrong field count — takes the general string path, so accepted
// inputs, rejected inputs and error texts are those of the string parser
// alone.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := lineScanner(r)
	b := graph.NewAutoBuilder() // infers node count as max endpoint + 1
	declared := 0               // "# n <count>" directive, 0 if absent
	line := 0
	for sc.Scan() {
		line++
		u, v, ok := parseEdgeBytes(sc.Bytes())
		if !ok {
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			if text[0] == '#' || text[0] == '%' {
				if d, ok, err := edgeListDirective(text); err != nil {
					return nil, fmt.Errorf("edgelist line %d: %w", line, err)
				} else if ok {
					declared = d
				}
				continue
			}
			var err error
			if u, v, err = parseEdgeFields(text); err != nil {
				return nil, fmt.Errorf("edgelist line %d: %w", line, err)
			}
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

// maxFastDigits is the longest digit run parseEdgeBytes reads: every id
// below MaxNodes (2^24, eight digits) fits, and no eight-digit run can
// overflow an int.
const maxFastDigits = 8

// parseEdgeBytes is ReadEdgeList's allocation-free path. It accepts
// exactly the lines made of ASCII whitespace and two runs of at most
// maxFastDigits decimal digits, each below MaxNodes, and returns the two
// ids — on such a line the string path (TrimSpace, Fields, parseNode)
// yields the same ids and no error. Every other line reports !ok and is
// left to the string path. (Digit runs are maximal, so the two runs are
// always apart: a byte that is neither digit nor space ends the parse.)
func parseEdgeBytes(line []byte) (int, int, bool) {
	u, i, ok := scanNodeID(line, skipASCIISpace(line, 0))
	if !ok {
		return 0, 0, false
	}
	v, i, ok := scanNodeID(line, skipASCIISpace(line, i))
	if !ok || skipASCIISpace(line, i) != len(line) {
		return 0, 0, false
	}
	return u, v, true
}

// scanNodeID reads the digit run starting at line[i] and returns its value
// and the index after it; ok is false for an empty run, a run longer than
// maxFastDigits, or a value of MaxNodes or more.
func scanNodeID(line []byte, i int) (id, next int, ok bool) {
	start := i
	for i < len(line) && '0' <= line[i] && line[i] <= '9' {
		if i-start == maxFastDigits {
			return 0, i, false
		}
		id = id*10 + int(line[i]-'0')
		i++
	}
	return id, i, i > start && id < MaxNodes
}

// skipASCIISpace returns the index of the first byte at or after i that is
// not ASCII whitespace.
func skipASCIISpace(line []byte, i int) int {
	for i < len(line) && isASCIISpace(line[i]) {
		i++
	}
	return i
}

// isASCIISpace reports the ASCII bytes strings.TrimSpace and
// strings.Fields treat as whitespace.
func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// parseEdgeFields is the string path's "u v" parser: exactly two fields,
// each a node id parseNode accepts.
func parseEdgeFields(text string) (u, v int, err error) {
	fields := strings.Fields(text)
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("want 2 fields \"u v\", got %d", len(fields))
	}
	if u, err = parseNode(fields[0]); err != nil {
		return 0, 0, err
	}
	if v, err = parseNode(fields[1]); err != nil {
		return 0, 0, err
	}
	return u, v, nil
}

// edgeListDirective recognizes "# n <count>" (or "% n <count>") and returns
// the declared node count.
func edgeListDirective(text string) (int, bool, error) {
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

// parseNode parses a 0-based node id, enforcing the MaxNodes cap.
func parseNode(s string) (int, error) {
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

// WriteEdgeList serializes g as a whitespace edge list, emitting the
// "# n <count>" directive first so node count survives isolated nodes.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	if g == nil {
		return errors.New("edgelist: nil graph")
	}
	bw := newErrWriter(w)
	bw.printf("# n %d\n", g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				bw.printf("%d %d\n", u, v)
			}
		}
	}
	return bw.err
}

// errWriter folds write errors so serialization loops stay branch-free.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
