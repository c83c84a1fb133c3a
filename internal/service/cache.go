package service

import (
	"container/list"
	"sync"

	"strongdecomp/internal/graph"
)

// cacheKey is the content-addressed identity of a request: the graph
// content hash plus the canonical byte encoding of the normalized
// registry.Params (Params.Key) — one encoding rule for every layer, so
// equivalent requests arriving through the facade, the HTTP API, or the
// job queue all land on the same cache line.
type cacheKey struct {
	hash   string
	params string
}

// lru is a minimal mutex-guarded LRU map used by the serving tiers and the
// graph store. A max of <= 0 disables it (every get misses). An
// optional weight function adds a total-weight bound on top of the entry
// bound, so a few huge values cannot pin unbounded memory behind a small
// entry count.
type lru[K comparable, V any] struct {
	mu        sync.Mutex
	max       int
	maxWeight int         // 0: entries are unweighted
	weight    func(V) int // required when maxWeight > 0
	total     int         // current total weight
	order     *list.List  // front = most recent; values are *lruEntry[K, V]
	items     map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key    K
	val    V
	weight int
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, order: list.New(), items: make(map[K]*list.Element)}
}

func newWeightedLRU[K comparable, V any](max, maxWeight int, weight func(V) int) *lru[K, V] {
	c := newLRU[K, V](max)
	c.maxWeight, c.weight = maxWeight, weight
	return c
}

func (c *lru[K, V]) get(key K) (V, bool) {
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

func (c *lru[K, V]) put(key K, val V) {
	if c.max <= 0 {
		return
	}
	w := 0
	if c.weight != nil {
		w = c.weight(val)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[K, V])
		c.total += w - e.weight
		e.val, e.weight = val, w
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val, weight: w})
		c.total += w
	}
	over := func() bool {
		return len(c.items) > c.max || (c.maxWeight > 0 && c.total > c.maxWeight)
	}
	for len(c.items) > 1 && over() {
		c.evictOldest()
	}
	if over() {
		// The sole resident entry alone exceeds the budget: don't retain.
		c.evictOldest()
	}
}

// remove drops key from the cache if present.
func (c *lru[K, V]) remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*lruEntry[K, V])
	c.order.Remove(el)
	delete(c.items, e.key)
	c.total -= e.weight
}

// evictOldest removes the least-recently-used entry; caller holds mu.
func (c *lru[K, V]) evictOldest() {
	oldest := c.order.Back()
	if oldest == nil {
		return
	}
	e := oldest.Value.(*lruEntry[K, V])
	c.order.Remove(oldest)
	delete(c.items, e.key)
	c.total -= e.weight
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// graphStore is the LRU over uploaded graphs, keyed by content hash.
// Storing the same graph twice is a no-op refresh (identical hash, and any
// value for a hash is by construction the same graph). Besides the entry
// bound it enforces a total size budget in bytes — each entry weighted by
// the real resident footprint of its CSR arrays (graph.MemoryFootprint),
// not abstract node+edge units — so tiny requests declaring huge node
// counts cannot pin gigabytes behind a small entry count; a graph too
// large for the whole budget is simply not retained (requests carrying it
// inline still compute).
type graphStore struct{ *lru[string, *graph.Graph] }

func newGraphStore(max, budget int) *graphStore {
	return &graphStore{newWeightedLRU[string](max, budget, (*graph.Graph).MemoryFootprint)}
}

// runnerTable lazily builds and caches one Runner per algorithm name, so a
// pooled backend (an Engine) is shared by every request for that
// algorithm.
type runnerTable struct {
	mu      sync.Mutex
	build   func(algo string) (Runner, error)
	runners map[string]Runner
}

func newRunnerTable(build func(algo string) (Runner, error)) *runnerTable {
	return &runnerTable{build: build, runners: make(map[string]Runner)}
}

func (t *runnerTable) get(algo string) (Runner, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.runners[algo]; ok {
		return r, nil
	}
	r, err := t.build(algo)
	if err != nil {
		return nil, err
	}
	t.runners[algo] = r
	return r, nil
}
