package rg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"strongdecomp/internal/cluster"
	"strongdecomp/internal/graph"
)

// seedResult is what one seeding helper leaves behind: the proposals in
// order, the candidate list in order, and the nodes whose candidate bit is
// set, ascending.
type seedResult struct {
	props  []proposal
	active []int32
	marked []int32
}

// runSeed runs one seeding helper on a freshly painted st, records what it
// left behind and undoes it, so that the other helper and the phase itself
// start from the same painted state.
func runSeed(st *state, seed func()) seedResult {
	st.props = st.props[:0]
	seed()
	r := seedResult{props: slices.Clone(st.props), active: slices.Clone(st.activeBlue)}
	for v, s := range st.nstat {
		if s&statActive != 0 {
			r.marked = append(r.marked, int32(v))
			st.nstat[v] = s &^ statActive
		}
	}
	st.props = st.props[:0]
	st.activeBlue = st.activeBlue[:0]
	return r
}

// compareSeedDirections carves G[nodes] phase by phase. At every phase
// start it runs both seeding helpers and checks that they give the same
// proposals in the same order and the same candidate set, that push
// seeding leaves best reset, that paint's live counts match the status
// bytes, and that a phase without a red or a blue node seeds nothing. It
// returns how many phases that could propose seedProposals would pull
// (dirs[0]) and push (dirs[1]).
func compareSeedDirections(g *graph.Graph, nodes []int, eps float64) (dirs [2]int, err error) {
	st := new(state)
	if err := st.reset(g, nodes, eps); err != nil {
		return dirs, err
	}
	for phase := 0; phase < st.b; phase++ {
		red, blue := st.paint(phase)
		var live [2]int
		for _, s := range st.nstat {
			switch s {
			case 0:
				live[0]++
			case statRed:
				live[1]++
			}
		}
		if live != [2]int{blue, red} {
			return dirs, fmt.Errorf("phase %d: paint counts %d red, %d blue; status bytes say %d, %d", phase, red, blue, live[1], live[0])
		}
		pull := runSeed(st, st.pullSeed)
		push := runSeed(st, st.pushSeed)
		switch {
		case !slices.Equal(pull.props, push.props):
			return dirs, fmt.Errorf("phase %d: pull proposes %v, push %v", phase, pull.props, push.props)
		case !slices.Equal(pull.active, push.active) || !slices.Equal(pull.marked, push.marked):
			return dirs, fmt.Errorf("phase %d: pull leaves candidates %v (marked %v), push %v (marked %v)",
				phase, pull.active, pull.marked, push.active, push.marked)
		case len(pull.active) != len(pull.props) || len(pull.marked) != len(pull.props):
			return dirs, fmt.Errorf("phase %d: %d proposals but %d candidates, %d marked", phase, len(pull.props), len(pull.active), len(pull.marked))
		}
		for v, key := range st.best {
			if key != math.MaxUint64 {
				return dirs, fmt.Errorf("phase %d: push left best[%d] = %#x", phase, v, key)
			}
		}
		if red == 0 || blue == 0 {
			if len(pull.props) != 0 {
				return dirs, fmt.Errorf("phase %d: %d red and %d blue nodes, yet %d proposals", phase, red, blue, len(pull.props))
			}
			if n := st.seedProposals(red, blue); n != 0 {
				return dirs, fmt.Errorf("phase %d: %d red and %d blue nodes, yet seedProposals made %d proposals", phase, red, blue, n)
			}
		} else if red >= blue {
			dirs[0]++
		} else {
			dirs[1]++
		}
		st.runPhase(phase, nil)
	}
	return dirs, nil
}

// TestSeedDirections: on every carve-fixture input and ε, pull and push
// seeding agree at every phase start, and the fixtures take both
// directions.
func TestSeedDirections(t *testing.T) {
	var total [2]int
	for _, in := range carveFixtureInputs() {
		for _, eps := range carveFixtureEps {
			dirs, err := compareSeedDirections(in.g, in.nodes, eps)
			if err != nil {
				t.Fatalf("%s eps=%v: %v", in.name, eps, err)
			}
			total[0] += dirs[0]
			total[1] += dirs[1]
		}
	}
	if total[0] == 0 || total[1] == 0 {
		t.Fatalf("phases seeded by pull/push: %d/%d; the fixtures must exercise both", total[0], total[1])
	}
}

// fuzzCarveInput decodes a carve input from fuzz bytes: data[0] picks
// n ≤ 64, data[1] picks ε in (0, 1], bit 0 of data[2] asks for a subset
// and its other bits rotate the subset's order. With a subset, the next
// ⌈n/8⌉ bytes are its membership mask (missing bytes mean members); the
// remaining bytes, in pairs, are edges taken mod n.
func fuzzCarveInput(data []byte) (g *graph.Graph, nodes []int, eps float64, ok bool) {
	if len(data) < 3 {
		return nil, nil, 0, false
	}
	n := 1 + int(data[0])%64
	eps = float64(1+int(data[1])%100) / 100
	flags, rest := data[2], data[3:]
	if flags&1 != 0 {
		nodes = make([]int, 0, n)
		mask := rest[:min(len(rest), (n+7)/8)]
		rest = rest[len(mask):]
		for v := range n {
			if v/8 >= len(mask) || mask[v/8]>>(v%8)&1 == 1 {
				nodes = append(nodes, v)
			}
		}
		if len(nodes) > 0 {
			k := int(flags>>1) % len(nodes)
			nodes = slices.Concat(nodes[k:], nodes[:k])
		}
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(rest); i += 2 {
		if u, v := int(rest[i])%n, int(rest[i+1])%n; u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, 0, false
	}
	return g, nodes, eps, true
}

// FuzzSeedDirections: on small graphs, node subsets and ε, pull and push
// seeding agree at every phase start and the carve is a valid weak
// carving.
func FuzzSeedDirections(f *testing.F) {
	f.Add([]byte{7, 50, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add([]byte{63, 5, 0, 0, 9, 0, 17, 0, 33, 1, 2, 3, 4, 5, 6, 7, 8, 40, 41, 41, 42, 10, 50})
	f.Add([]byte{40, 30, 7, 0xb5, 0x3c, 0xff, 0x0f, 0x99, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0, 7, 12, 30, 30, 31})
	f.Add([]byte{20, 99, 1, 0x00, 0x00, 0x0f, 1, 2})
	f.Add([]byte{15, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, nodes, eps, ok := fuzzCarveInput(data)
		if !ok {
			return
		}
		if _, err := compareSeedDirections(g, nodes, eps); err != nil {
			t.Fatalf("n=%d nodes=%v eps=%v: %v", g.N(), nodes, eps, err)
		}
		c, err := Carve(g, nodes, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		var alive []bool
		if nodes != nil {
			alive = make([]bool, g.N())
			for _, v := range nodes {
				alive[v] = true
			}
		}
		p := ParamsFor(g.N(), eps)
		if err := cluster.CheckWeakCarving(g, alive, c, eps, p.MaxDepth, p.Congestion); err != nil {
			t.Fatalf("n=%d nodes=%v eps=%v: %v", g.N(), nodes, eps, err)
		}
	})
}
