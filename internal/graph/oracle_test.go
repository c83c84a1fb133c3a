package graph

// The mask-based traversals below are the reference implementations the
// Scratch traversals are tested against: a plain distance array and
// parent array, reset per call, and an alive mask (nil means every node)
// in place of the scratch's stamped node set.

// maskedBFS runs a multi-source BFS from srcs restricted to alive nodes
// and fills dist with hop distances (-1 for unreachable or dead nodes).
// dist must have length g.N(). It returns the visited nodes in BFS order.
func maskedBFS(g *Graph, alive []bool, srcs []int, dist []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for _, s := range srcs {
		if alive != nil && !alive[s] {
			continue
		}
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] != -1 || (alive != nil && !alive[v]) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return queue
}

// maskedBFSTree runs a single-source BFS and returns (dist, parent) with
// parent[src] = -1 and parent[v] = -1 for unreachable v.
func maskedBFSTree(g *Graph, alive []bool, src int) (dist, parent []int) {
	dist = make([]int, g.N())
	parent = make([]int, g.N())
	for i := range dist {
		dist[i], parent[i] = -1, -1
	}
	if alive != nil && !alive[src] {
		return dist, parent
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] != -1 || (alive != nil && !alive[v]) {
				continue
			}
			dist[v] = dist[u] + 1
			parent[v] = u
			queue = append(queue, v)
		}
	}
	return dist, parent
}
