// Package cluster defines the output types shared by every decomposition and
// ball-carving algorithm in this repository — carvings, colored
// decompositions, and Steiner trees — together with the validators that the
// test suite and cmd/verify use as correctness oracles.
//
// Terminology follows the paper:
//
//   - A (C, D) strong-diameter network decomposition partitions the nodes
//     into clusters colored with C colors so that same-color clusters are
//     non-adjacent and each cluster's induced subgraph has diameter <= D.
//   - A strong-diameter ball carving with boundary parameter ε removes at
//     most an ε fraction of nodes and clusters the rest into non-adjacent
//     clusters of bounded induced diameter.
//   - A weak-diameter carving relaxes the diameter to be measured in the
//     host graph and augments each cluster with a Steiner tree of bounded
//     depth; each edge may appear in at most L trees (congestion).
package cluster

import (
	"fmt"
	"slices"

	"strongdecomp/internal/graph"
)

// Unclustered marks a node that belongs to no cluster (dead/removed).
const Unclustered = -1

// Tree is a Steiner tree over the host graph, stored as two parallel
// slices: Nodes lists the tree nodes with every parent before its children
// (Nodes[0] == Root), and Parent[i] is the index in Nodes of Nodes[i]'s
// parent (-1 for the root). Tree nodes may include relay nodes that are not
// cluster members; that is exactly what makes a cluster's diameter "weak".
type Tree struct {
	Root   int
	Nodes  []int
	Parent []int
}

// NewTree returns a tree containing only the root.
func NewTree(root int) *Tree {
	return &Tree{Root: root, Nodes: []int{root}, Parent: []int{-1}}
}

// Attach appends node v as a child of the node at index pi and returns v's
// index. The caller guarantees that pi is an index of the tree and that v
// is not yet a tree node.
func (t *Tree) Attach(v, pi int) int {
	t.Nodes = append(t.Nodes, v)
	t.Parent = append(t.Parent, pi)
	return len(t.Nodes) - 1
}

// Add attaches node v with parent node p, which must already be in the
// tree; adding a node that is already present keeps its first attachment.
// Add scans the tree, so it suits small trees; code that grows large trees
// keeps its own node-to-index lookup and calls Attach.
func (t *Tree) Add(v, p int) error {
	pi := slices.Index(t.Nodes, p)
	if pi < 0 {
		return fmt.Errorf("cluster: tree parent %d not in tree", p)
	}
	if !slices.Contains(t.Nodes, v) {
		t.Attach(v, pi)
	}
	return nil
}

// Depth returns the maximum root-to-node hop distance in the tree.
func (t *Tree) Depth() int {
	if len(t.Nodes) <= 1 {
		return 0
	}
	depth := make([]int, len(t.Nodes))
	max := 0
	for i := 1; i < len(t.Nodes); i++ {
		depth[i] = depth[t.Parent[i]] + 1
		if depth[i] > max {
			max = depth[i]
		}
	}
	return max
}

// CheckLayout checks the tree's layout for a host graph of len(mark)
// nodes: Nodes and Parent are non-empty and of equal length, Nodes[0] is
// Root with Parent[0] == -1, every other Parent[i] lies in [0, i), and the
// node ids are distinct and in range. mark must be all false on entry and
// is all false again on return, so one mark serves many trees.
func (t *Tree) CheckLayout(mark []bool) error {
	if len(t.Nodes) == 0 || len(t.Nodes) != len(t.Parent) {
		return fmt.Errorf("cluster: tree has %d nodes and %d parents", len(t.Nodes), len(t.Parent))
	}
	if t.Nodes[0] != t.Root || t.Parent[0] != -1 {
		return fmt.Errorf("cluster: tree root %d is not node 0 with parent -1", t.Root)
	}
	var err error
	marked := 0
	for i, v := range t.Nodes {
		if v < 0 || v >= len(mark) {
			err = fmt.Errorf("cluster: tree node %d outside [0,%d)", v, len(mark))
			break
		}
		if mark[v] {
			err = fmt.Errorf("cluster: tree node %d appears twice", v)
			break
		}
		if i > 0 && (t.Parent[i] < 0 || t.Parent[i] >= i) {
			err = fmt.Errorf("cluster: tree node %d has parent index %d outside [0,%d)", v, t.Parent[i], i)
			break
		}
		mark[v] = true
		marked++
	}
	for _, v := range t.Nodes[:marked] {
		mark[v] = false
	}
	return err
}

// Validate checks the tree's layout (see CheckLayout) and that every tree
// edge exists in g.
func (t *Tree) Validate(g *graph.Graph) error {
	return t.validate(g, make([]bool, g.N()))
}

func (t *Tree) validate(g *graph.Graph, mark []bool) error {
	if err := t.CheckLayout(mark); err != nil {
		return err
	}
	for i := 1; i < len(t.Nodes); i++ {
		if v, p := t.Nodes[i], t.Nodes[t.Parent[i]]; !g.HasEdge(v, p) {
			return fmt.Errorf("cluster: tree edge (%d,%d) not in graph", v, p)
		}
	}
	return nil
}

// Carving is the result of a ball-carving algorithm on a host graph: an
// assignment of surviving nodes to clusters. Dead (removed) nodes have
// Assign[v] == Unclustered. Centers and Trees are optional per-cluster
// metadata (weak carvers provide Steiner trees; strong carvers provide
// centers).
type Carving struct {
	Assign  []int   // node -> cluster id in [0, K) or Unclustered
	K       int     // number of clusters
	Centers []int   // cluster -> center node (optional, nil if absent)
	Trees   []*Tree // cluster -> Steiner tree (optional, nil if absent)
}

// Members returns per-cluster sorted member lists.
func (c *Carving) Members() [][]int {
	members := make([][]int, c.K)
	for v, cl := range c.Assign {
		if cl != Unclustered {
			members[cl] = append(members[cl], v)
		}
	}
	return members
}

// DeadFraction returns the fraction of nodes with no cluster, restricted to
// the given node set (nil means all nodes).
func (c *Carving) DeadFraction(nodes []int) float64 {
	if nodes == nil {
		dead := 0
		for _, cl := range c.Assign {
			if cl == Unclustered {
				dead++
			}
		}
		if len(c.Assign) == 0 {
			return 0
		}
		return float64(dead) / float64(len(c.Assign))
	}
	dead := 0
	for _, v := range nodes {
		if c.Assign[v] == Unclustered {
			dead++
		}
	}
	if len(nodes) == 0 {
		return 0
	}
	return float64(dead) / float64(len(nodes))
}

// Decomposition is a colored clustering of all nodes of the host graph.
type Decomposition struct {
	Assign  []int // node -> cluster id in [0, K)
	Color   []int // cluster -> color in [0, NumColors)
	K       int
	Colors  int   // number of colors
	Centers []int // optional cluster centers
}

// NodeColor returns the color of node v's cluster.
func (d *Decomposition) NodeColor(v int) int { return d.Color[d.Assign[v]] }

// Members returns per-cluster sorted member lists.
func (d *Decomposition) Members() [][]int {
	members := make([][]int, d.K)
	for v, cl := range d.Assign {
		members[cl] = append(members[cl], v)
	}
	return members
}
