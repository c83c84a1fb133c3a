package congest

import (
	"math/rand"
	"strings"
	"testing"

	"strongdecomp/internal/graph"
)

func TestRunRejectsProgramCountMismatch(t *testing.T) {
	g := graph.Path(3)
	if _, err := Run(g, make([]Program, 2), Config{}); err == nil {
		t.Fatal("mismatched program count accepted")
	}
}

func TestBFSMatchesGraphLevel(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":  graph.Path(40),
		"grid":  graph.Grid(8, 8),
		"gnp":   graph.ConnectedGnp(80, 0.05, 3),
		"tree":  graph.BinaryTree(63),
		"cycle": graph.Cycle(30),
	} {
		t.Run(name, func(t *testing.T) {
			dist, parent, met, err := RunBFS(g, 0, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := graph.NewScratch()
			want.MarkAll(g.N())
			want.Ball(g, []int{0}, -1)
			ecc := 0
			for v := range g.N() {
				if dist[v] != want.Dist(v) {
					t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want.Dist(v))
				}
				if want.Dist(v) > ecc {
					ecc = want.Dist(v)
				}
				if v != 0 && parent[v] >= 0 {
					if !g.HasEdge(v, parent[v]) || want.Dist(parent[v])+1 != want.Dist(v) {
						t.Fatalf("bad parent %d for %d", parent[v], v)
					}
				}
			}
			// E8 reconciliation: the protocol finishes within ecc + 2
			// rounds, matching the cost model's "BFS to depth d costs
			// d + O(1) rounds".
			if met.Rounds < ecc || met.Rounds > ecc+2 {
				t.Fatalf("BFS rounds %d vs eccentricity %d", met.Rounds, ecc)
			}
			if met.MaxMessageBits > DefaultBandwidth(g.N()) {
				t.Fatalf("message of %d bits exceeded budget", met.MaxMessageBits)
			}
		})
	}
}

func TestMinIDElectsZero(t *testing.T) {
	g := graph.ConnectedGnp(60, 0.06, 5)
	mins, met, err := RunMinID(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range mins {
		if m != 0 {
			t.Fatalf("node %d learned min %d", v, m)
		}
	}
	if met.Messages == 0 {
		t.Fatal("no messages exchanged")
	}
}

func TestTreeCountCountsAllNodes(t *testing.T) {
	g := graph.Grid(7, 7)
	_, parent, _, err := RunBFS(g, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	total, met, err := RunTreeCount(g, parent, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if total != g.N() {
		t.Fatalf("counted %d of %d nodes", total, g.N())
	}
	// Convergecast finishes within ~2x tree depth.
	s := graph.NewScratch()
	s.MarkAll(g.N())
	order := s.Ball(g, []int{0}, -1)
	depth := s.Dist(order[len(order)-1])
	if met.Rounds > 2*depth+3 {
		t.Fatalf("count rounds %d vs depth %d", met.Rounds, depth)
	}
}

func TestTreeCountSingleton(t *testing.T) {
	g := graph.Path(1)
	total, _, err := RunTreeCount(g, []int{-1}, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("singleton count %d", total)
	}
}

// --- failure injection ---------------------------------------------------

type badSender struct{ target int }

func (b *badSender) Init(ctx *Context) {
	ctx.Send(b.target, idPayload{id: 0, idBits: 4})
}
func (b *badSender) OnRound(*Context, []Message) {}

type inert struct{}

func (inert) Init(*Context)               {}
func (inert) OnRound(*Context, []Message) {}

func TestSendToNonNeighborFails(t *testing.T) {
	g := graph.Path(3) // 0-1-2: 0 and 2 not adjacent
	ps := []Program{&badSender{target: 2}, inert{}, inert{}}
	_, err := Run(g, ps, Config{})
	if err == nil || !strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("err = %v", err)
	}
}

type oversized struct{}

type hugePayload struct{}

func (hugePayload) Bits() int { return 1 << 20 }

func (oversized) Init(ctx *Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, hugePayload{})
	}
}
func (oversized) OnRound(*Context, []Message) {}

func TestOversizedMessageFails(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(g, []Program{oversized{}, oversized{}}, Config{})
	if err == nil || !strings.Contains(err.Error(), "exceeds B") {
		t.Fatalf("err = %v", err)
	}
}

type doubleSender struct{}

func (doubleSender) Init(ctx *Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, idPayload{id: 1, idBits: 4})
		ctx.Send(1, idPayload{id: 2, idBits: 4})
	}
}
func (doubleSender) OnRound(*Context, []Message) {}

func TestDoubleSendFails(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(g, []Program{doubleSender{}, doubleSender{}}, Config{})
	if err == nil || !strings.Contains(err.Error(), "sent twice") {
		t.Fatalf("err = %v", err)
	}
}

type babbler struct{}

func (babbler) Init(ctx *Context)                 { ctx.SetAlarm(1) }
func (babbler) OnRound(ctx *Context, _ []Message) { ctx.SetAlarm(ctx.Round() + 1) }

func TestMaxRoundsAborts(t *testing.T) {
	g := graph.Path(2)
	_, err := Run(g, []Program{babbler{}, babbler{}}, Config{MaxRounds: 10})
	if err == nil || !strings.Contains(err.Error(), "MaxRounds") {
		t.Fatalf("err = %v", err)
	}
}

// --- alarms and fast-forward ----------------------------------------------

type lateStarter struct {
	fired int
}

func (l *lateStarter) Init(ctx *Context) { ctx.SetAlarm(1000) }
func (l *lateStarter) OnRound(ctx *Context, _ []Message) {
	l.fired = ctx.Round()
	ctx.Halt()
}

func TestFastForwardSkipsQuietRounds(t *testing.T) {
	g := graph.Path(2)
	ps := []Program{&lateStarter{}, &lateStarter{}}
	met, err := Run(g, ps, Config{MaxRounds: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].(*lateStarter).fired != 1000 {
		t.Fatalf("alarm fired at %d", ps[0].(*lateStarter).fired)
	}
	if met.Rounds != 1001 {
		t.Fatalf("logical rounds %d, want 1001", met.Rounds)
	}
	// Only two active rounds (init + alarm): the engine must not have
	// simulated the 999 silent rounds.
	if met.ActiveRounds > 3 {
		t.Fatalf("simulated %d active rounds", met.ActiveRounds)
	}
}

// --- MPX race --------------------------------------------------------------

func TestRaceMatchesReferenceImplementation(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"grid": graph.Grid(9, 9),
		"gnp":  graph.ConnectedGnp(90, 0.05, 11),
		"path": graph.Path(60),
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			shifts := GeometricShifts(g.N(), 0.25, 4*log2ceil(g.N()), rng)
			got, met, err := RunRace(g, shifts, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := ReferenceRace(g, shifts)
			for v := range got {
				if got[v].Source != want[v].Source || got[v].Arrival != want[v].Arrival {
					t.Fatalf("node %d: protocol (%d,%d) vs reference (%d,%d)",
						v, got[v].Source, got[v].Arrival, want[v].Source, want[v].Arrival)
				}
				if got[v].Second != want[v].Second || got[v].SecSrc != want[v].SecSrc {
					t.Fatalf("node %d runner-up mismatch: (%d,%d) vs (%d,%d)",
						v, got[v].SecSrc, got[v].Second, want[v].SecSrc, want[v].Second)
				}
			}
			if met.MaxMessageBits > DefaultBandwidth(g.N()) {
				t.Fatalf("race message too large: %d bits", met.MaxMessageBits)
			}
		})
	}
}

func TestRaceEveryNodeClustered(t *testing.T) {
	g := graph.Grid(6, 6)
	rng := rand.New(rand.NewSource(13))
	shifts := GeometricShifts(g.N(), 0.3, 20, rng)
	res, _, err := RunRace(g, shifts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res {
		if r.Source == -1 {
			t.Fatalf("node %d never reached", v)
		}
	}
}

func TestGeometricShiftsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shifts := GeometricShifts(1000, 0.5, 7, rng)
	for _, s := range shifts {
		if s < 0 || s > 7 {
			t.Fatalf("shift %d out of range", s)
		}
	}
}

func TestDefaultBandwidthLogarithmic(t *testing.T) {
	if DefaultBandwidth(1<<16) >= 200 {
		t.Fatalf("bandwidth too large: %d", DefaultBandwidth(1<<16))
	}
	if DefaultBandwidth(4) < 8 {
		t.Fatalf("bandwidth too small: %d", DefaultBandwidth(4))
	}
}
