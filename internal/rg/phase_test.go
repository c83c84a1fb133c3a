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
//   - label[v] < 0 exactly for nodes outside S and nodes that died, and a
//     dead node stays dead;
//   - every live node's label is a cluster of S whose size counts it;
//   - the proposer candidate set is empty, as the next seeding assumes.
func TestPhaseInvariants(t *testing.T) {
	for _, in := range carveFixtureInputs() {
		for _, eps := range carveFixtureEps {
			nodes := in.nodes
			if nodes == nil {
				nodes = allNodes(in.g.N())
			}
			st := newState(in.g, nodes, eps)
			inS := make([]bool, in.g.N())
			for _, v := range nodes {
				inS[v] = true
			}
			dead := make([]bool, in.g.N())
			m := rounds.NewMeter()
			for phase := 0; phase < st.b; phase++ {
				st.runPhase(phase, m)
				if err := checkPhaseState(st, inS, dead); err != nil {
					t.Fatalf("%s eps=%v after phase %d: %v", in.name, eps, phase, err)
				}
			}
		}
	}
}

// checkPhaseState checks st between phases and records newly dead nodes
// of S in dead. It returns the first violation it finds.
func checkPhaseState(st *state, inS, dead []bool) error {
	if len(st.activeBlue) != 0 {
		return fmt.Errorf("%d proposer candidates left over", len(st.activeBlue))
	}
	for v, ok := range st.inActive {
		if ok {
			return fmt.Errorf("node %d still marked as a candidate", v)
		}
	}
	n := len(st.label)
	next := make([]int, n) // per label: tree index of its next log entry
	for _, l := range st.nodes {
		next[l] = 1 // index 0 is the root
	}
	for i, a := range st.attaches {
		if st.clusters[a.label].size <= 0 {
			return fmt.Errorf("log entry %d (node %d) belongs to emptied cluster %d", i, a.node, a.label)
		}
		if a.parent < 0 || a.parent >= next[a.label] {
			return fmt.Errorf("log entry %d of cluster %d: parent index %d not before index %d", i, a.label, a.parent, next[a.label])
		}
		next[a.label]++
	}
	want := 0
	for _, l := range st.nodes {
		if x := st.clusters[l]; x.size > 0 {
			want += x.treeSize - 1
			if next[l] != x.treeSize {
				return fmt.Errorf("cluster %d has %d log entries, tree size %d", l, next[l]-1, x.treeSize)
			}
		}
	}
	if len(st.attaches) != want {
		return fmt.Errorf("log holds %d entries, live trees need %d", len(st.attaches), want)
	}
	members := make([]int, n)
	for v, l := range st.label {
		switch {
		case !inS[v]:
			if l >= 0 {
				return fmt.Errorf("node %d outside S has label %d", v, l)
			}
		case l < 0:
			dead[v] = true
		case dead[v]:
			return fmt.Errorf("dead node %d came back with label %d", v, l)
		case !inS[l]:
			return fmt.Errorf("node %d has label %d outside S", v, l)
		default:
			members[l]++
		}
	}
	for _, l := range st.nodes {
		if members[l] != st.clusters[l].size {
			return fmt.Errorf("cluster %d has %d labelled members, size %d", l, members[l], st.clusters[l].size)
		}
	}
	return nil
}
