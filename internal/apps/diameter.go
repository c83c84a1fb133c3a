package apps

// The approximate-diameter application. Unlike MIS and coloring it needs
// no decomposition to run — it is the classic linear-time double sweep —
// but served alongside them it shares the serving tier's graph
// resolution, caching, and metering, and its response carries the
// decomposition's ScheduleCost so clients see what the amortized
// color-by-color applications would pay on the same graph.

import (
	"sync"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/rounds"
)

// scratchPool pools traversal scratch for DiameterApprox and
// BuildSpannerContext, so repeated served runs reuse their per-node state.
var scratchPool = sync.Pool{New: func() any { return graph.NewScratch() }}

// DiameterApprox returns the 2-sweep approximation of g's diameter: per
// connected component, a BFS from an arbitrary node finds a far node and
// a second BFS from it reports that node's eccentricity; the result is
// the maximum over components. It is a lower bound on the true diameter
// and never below half of it, computed in O(n + m). The meter is charged
// 2·diam + 2 simulated rounds — two distributed BFS waves plus the
// constant-round coordination of the sweep.
func DiameterApprox(g *graph.Graph, m *rounds.Meter) int {
	s := scratchPool.Get().(*graph.Scratch)
	diam := s.DiameterApprox(g)
	scratchPool.Put(s)
	m.Charge("apps/diameter", 2*int64(diam)+2)
	return diam
}
