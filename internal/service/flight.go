package service

import (
	"context"
	"sync"
	"sync/atomic"

	"strongdecomp/internal/registry"
)

// flightGroup deduplicates identical requests in flight: the first caller
// for a key starts the computation, every concurrent caller for the same
// key blocks on its completion and shares the result. Unlike a cache this
// holds no history — an entry lives exactly as long as one computation.
// Each serving tier (tier.go) owns one group over its value type.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall[V]
}

type flightCall[V any] struct {
	done    chan struct{} // closed when res/err are final
	res     V
	err     error
	parties atomic.Int64       // callers still waiting; mutated under flightGroup.mu
	cancel  context.CancelFunc // aborts the shared computation
}

func newFlightGroup[V any]() *flightGroup[V] {
	return &flightGroup[V]{calls: make(map[cacheKey]*flightCall[V])}
}

// do runs compute for key, collapsing concurrent identical calls onto one
// execution. The computation runs on its own context, detached from any
// single caller's cancellation: a caller that gives up (its context dies)
// leaves the flight with an ErrCanceled-matching error without poisoning
// the shared result, and only when the last interested caller has left is
// the computation itself canceled. shared reports whether this caller
// joined a flight another caller started.
func (f *flightGroup[V]) do(ctx context.Context, key cacheKey, compute func(ctx context.Context) (V, error)) (res V, err error, shared bool) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		c.parties.Add(1)
		f.mu.Unlock()
		res, err = f.wait(ctx, key, c)
		return res, err, true
	}
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &flightCall[V]{done: make(chan struct{}), cancel: cancel}
	c.parties.Add(1)
	f.calls[key] = c
	f.mu.Unlock()

	go func() {
		c.res, c.err = compute(runCtx)
		f.forget(key, c)
		close(c.done)
		cancel()
	}()
	res, err = f.wait(ctx, key, c)
	return res, err, false
}

// wait blocks until the shared computation completes or the caller's own
// context dies. The last caller abandoning a flight cancels the
// computation and unlinks the call — under the group lock, so a new
// request can never join a flight that is already being torn down.
func (f *flightGroup[V]) wait(ctx context.Context, key cacheKey, c *flightCall[V]) (V, error) {
	select {
	case <-c.done:
		return c.res, c.err
	case <-ctx.Done():
		f.mu.Lock()
		if c.parties.Add(-1) == 0 {
			if f.calls[key] == c {
				delete(f.calls, key)
			}
			c.cancel()
		}
		f.mu.Unlock()
		var zero V
		return zero, registry.CtxErr(ctx)
	}
}

// forget unlinks c from the group if it is still the current flight for
// key (an abandoned flight may already have been replaced by a fresh one).
func (f *flightGroup[V]) forget(key cacheKey, c *flightCall[V]) {
	f.mu.Lock()
	if f.calls[key] == c {
		delete(f.calls, key)
	}
	f.mu.Unlock()
}
