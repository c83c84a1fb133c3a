package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"strongdecomp/internal/graph"
	"strongdecomp/internal/obs"
)

// codec adapts one value type to a tier. encode returns nil data for a
// value with nothing to persist; decode validates a record against its key
// and the graph's node count n; fits re-checks a memory entry against n
// (it may predate the graph); verify, when set, must also accept a decoded
// disk record, or the record is quarantined.
type codec[V any] struct {
	dir    string // record directory under Config.DataDir
	encode func(key cacheKey, v V) ([]byte, error)
	decode func(data []byte, key cacheKey, n int) (V, bool)
	fits   func(v V, n int) bool
	verify func(g *graph.Graph, v V) error
}

// tier is one content-addressed serving tier — a memory LRU over a
// directory of records, behind one singleflight — parameterised by its
// codec. Results and app answers each have one.
type tier[V any] struct {
	codec[V]
	lru     *lru[cacheKey, V]
	flight  *flightGroup[V]
	timeout time.Duration // Config.Timeout: bounds each detached flight
	dir     string        // record directory; "" without a data directory
	disk    *persistStore // quarantine and shared counters; nil without a data directory

	saves    atomic.Int64 // successful record spills
	diskHits atomic.Int64 // memory misses answered by a decodable record
}

// newTier builds a tier of size LRU entries and, when disk is non-nil, its
// record directory under dataDir.
func newTier[V any](c codec[V], size int, timeout time.Duration, disk *persistStore, dataDir string) (*tier[V], error) {
	t := &tier[V]{
		codec:   c,
		lru:     newLRU[cacheKey, V](size),
		flight:  newFlightGroup[V](),
		timeout: timeout,
		disk:    disk,
	}
	if disk != nil {
		t.dir = filepath.Join(dataDir, c.dir)
		if err := mkdirData(t.dir); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// served tells a lookup's caller how it was answered, to flag its copy.
type served int

const (
	servedFresh  served = iota // this caller's own flight ran the miss
	servedCache                // a memory or disk hit
	servedShared               // joined a concurrent caller's flight
)

// path returns the record path of key: the graph hash plus the hex SHA-256
// of the params bytes. Hashing (rather than hex-encoding the key itself)
// keeps the name fixed-length — algorithm names are caller-chosen and a
// raw-key name could exceed the filesystem's limit. The full key is stored
// inside the record and verified on load, so a hash collision can at worst
// cause a recompute, never a wrong answer.
func (t *tier[V]) path(key cacheKey) string {
	sum := sha256.Sum256([]byte(key.params))
	return filepath.Join(t.dir, key.hash+"-"+hex.EncodeToString(sum[:])+".json")
}

// cached consults memory, then disk, and names the tier that answered. A
// memory entry that does not fit g is evicted; a disk record that fails
// decode or verify is quarantined, a good one re-admitted to memory. A nil
// g (graph not locally resolvable) serves memory unchecked and skips disk.
func (t *tier[V]) cached(key cacheKey, g *graph.Graph) (V, string, bool) {
	var zero V
	if v, ok := t.lru.get(key); ok {
		if g == nil || t.fits(v, g.N()) {
			return v, "lru", true
		}
		t.lru.remove(key)
	}
	if t.dir == "" || g == nil || !validHash(key.hash) {
		return zero, "", false
	}
	path := t.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, "", false
	}
	v, ok := t.decode(data, key, g.N())
	if !ok {
		t.disk.quarantine(path)
		return zero, "", false
	}
	t.diskHits.Add(1)
	if t.verify != nil && t.verify(g, v) != nil {
		t.disk.quarantine(path)
		return zero, "", false
	}
	t.lru.put(key, v)
	return v, "disk", true
}

// lookup is the one serving path: memory, then disk, then — bounded by the
// caller's wait, when positive — one flight per key on a context detached
// from the caller and bounded by the service timeout. The flight runs
// miss, admits its value, then hands its callers the value of the done
// function miss returned (or the admitted value when done is nil). st
// counts the outcome; a hit's "cache" span carries its tier, then attrs.
func (t *tier[V]) lookup(ctx context.Context, st *algoStats, key cacheKey, g *graph.Graph, wait time.Duration,
	attrs []slog.Attr, miss func(ctx context.Context) (V, func() V, error)) (V, served, error) {
	var zero V
	start := time.Now()
	if v, from, ok := t.cached(key, g); ok {
		st.cacheHits.Add(1)
		obs.Span(ctx, "cache", start, append([]slog.Attr{slog.String("tier", from)}, attrs...)...)
		return v, servedCache, nil
	}
	st.cacheMisses.Add(1)

	if wait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	v, err, shared := t.flight.do(ctx, key, func(runCtx context.Context) (V, error) {
		// Keep the caller's trace and collector across the detach.
		runCtx = obs.Transfer(runCtx, ctx)
		if t.timeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(runCtx, t.timeout)
			defer cancel()
		}
		v, done, err := miss(runCtx)
		if err != nil {
			return zero, err
		}
		t.admit(key, v, true)
		if done != nil {
			return done(), nil
		}
		return v, nil
	})
	if shared {
		st.dedupShared.Add(1)
	}
	if err != nil {
		// Per failed request — leader, followers and abandoned waiters.
		st.errors.Add(1)
		return zero, 0, err
	}
	if shared {
		return v, servedShared, nil
	}
	return v, servedFresh, nil
}

// admit stores v in memory and, when spill is set, on disk; a failed
// spill is only counted.
func (t *tier[V]) admit(key cacheKey, v V, spill bool) {
	t.lru.put(key, v)
	if !spill || t.dir == "" || !validHash(key.hash) {
		return
	}
	data, err := t.encode(key, v)
	if err == nil && data == nil {
		return // nothing worth persisting
	}
	if err == nil {
		err = writeFileAtomic(t.path(key), data)
	}
	if err != nil {
		t.disk.saveErrors.Add(1)
		return
	}
	t.saves.Add(1)
}
