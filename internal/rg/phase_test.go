package rg

import (
	"fmt"
	"testing"

	"strongdecomp/internal/rounds"
)

// TestPhaseInvariants runs the carver phase by phase on the fixture inputs
// and checks the state after each phase:
//
//   - the attach log holds only attachments of clusters that still have a
//     member, exactly treeSize-1 of them per such cluster, in tree-index
//     order with every parent index before its child's;
//   - the local ids number exactly S, in ascending host-id order, so no
//     node outside S can hold a label;
//   - label[v] < 0 exactly for nodes that died, and a dead node stays dead;
//   - every live node's label is a cluster of S whose size counts it;
//   - the proposer candidate set is empty, as the next seeding assumes;
//   - every node's status byte has no candidate bit, has the dead bit iff
//     its label is -1, and has the red bit iff its label was red in the
//     phase just run.
func TestPhaseInvariants(t *testing.T) {
	for _, in := range carveFixtureInputs() {
		for _, eps := range carveFixtureEps {
			st := new(state)
			if err := st.reset(in.g, in.nodes, eps); err != nil {
				t.Fatal(err)
			}
			nodes := in.nodes
			if nodes == nil {
				nodes = allNodes(in.g.N())
			}
			inS := make([]bool, in.g.N())
			for _, v := range nodes {
				inS[v] = true
			}
			dead := make([]bool, len(st.host))
			m := rounds.NewMeter()
			for phase := 0; phase < st.b; phase++ {
				st.runPhase(phase, m)
				if err := checkPhaseState(st, phase, inS, dead); err != nil {
					t.Fatalf("%s eps=%v after phase %d: %v", in.name, eps, phase, err)
				}
			}
		}
	}
}

// checkPhaseState checks st after phase and records newly dead nodes of S
// in dead, by local id. It returns the first violation it finds.
func checkPhaseState(st *state, phase int, inS, dead []bool) error {
	size := 0
	for _, ok := range inS {
		if ok {
			size++
		}
	}
	if len(st.host) != size {
		return fmt.Errorf("%d local ids for %d nodes of S", len(st.host), size)
	}
	for i, v := range st.host {
		if !inS[v] || (i > 0 && v <= st.host[i-1]) {
			return fmt.Errorf("local id %d maps to host %d: outside S or out of order", i, v)
		}
	}
	if len(st.activeBlue) != 0 {
		return fmt.Errorf("%d proposer candidates left over", len(st.activeBlue))
	}
	for v, s := range st.nstat {
		l := st.label[v]
		red := l >= 0 && (st.host[l]>>phase)&1 == 1
		switch {
		case s&statActive != 0:
			return fmt.Errorf("node %d still marked as a candidate", st.host[v])
		case (s&statDead != 0) != (l < 0):
			return fmt.Errorf("node %d with label %d has status %#x: dead bit wrong", st.host[v], l, s)
		case (s&statRed != 0) != red:
			return fmt.Errorf("node %d with label %d has status %#x: red bit wrong in phase %d", st.host[v], l, s, phase)
		}
	}
	n := len(st.label)
	next := make([]int32, n) // per label: tree index of its next log entry
	for l := range next {
		next[l] = 1 // index 0 is the root
	}
	for i, a := range st.attaches {
		if st.clusters[a.label].size <= 0 {
			return fmt.Errorf("log entry %d (node %d) belongs to emptied cluster %d", i, st.host[a.node], st.host[a.label])
		}
		if a.parent < 0 || a.parent >= next[a.label] {
			return fmt.Errorf("log entry %d of cluster %d: parent index %d not before index %d", i, st.host[a.label], a.parent, next[a.label])
		}
		next[a.label]++
	}
	want := 0
	for l, x := range st.clusters {
		if x.size > 0 {
			want += int(x.treeSize) - 1
			if next[l] != x.treeSize {
				return fmt.Errorf("cluster %d has %d log entries, tree size %d", st.host[l], next[l]-1, x.treeSize)
			}
		}
	}
	if len(st.attaches) != want {
		return fmt.Errorf("log holds %d entries, live trees need %d", len(st.attaches), want)
	}
	members := make([]int32, n)
	for v, l := range st.label {
		switch {
		case l < 0:
			dead[v] = true
		case dead[v]:
			return fmt.Errorf("dead node %d came back with label %d", st.host[v], l)
		case int(l) >= n:
			return fmt.Errorf("node %d has label %d outside S", st.host[v], l)
		default:
			members[l]++
		}
	}
	for l, x := range st.clusters {
		if members[l] != x.size {
			return fmt.Errorf("cluster %d has %d labelled members, size %d", st.host[l], members[l], x.size)
		}
	}
	return nil
}
