// Package engine holds the serving-side machinery behind fam.Engine: an
// LRU cache bounded by a byte budget, with singleflight fill
// deduplication and hit/miss/in-flight statistics. The public
// fam.Engine composes two of these caches — one for preprocessing
// artifacts (skyline indexes, sampled utility functions, materialized
// utility matrices), one for whole query results — over the shared
// worker pool of internal/par — and a third, behind a doorkeeper
// (DoAdmitted), for recorded GREEDY-SHRINK trajectories. Memory is the
// only resource the caches spend, so the byte budget is their one bound.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	// Hits counts lookups answered from a stored entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that started a fill (each successful fill
	// stores exactly one entry, so Misses also counts fills begun).
	Misses uint64 `json:"misses"`
	// Coalesced counts lookups that found a fill already in flight for
	// their key and waited for it instead of duplicating the work — the
	// singleflight savings.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped to keep the cache within its
	// byte budget.
	Evictions uint64 `json:"evictions"`
	// Errors counts fills that failed; failed fills are never stored.
	Errors uint64 `json:"errors"`
	// Rejected counts DoAdmitted lookups of a key seen for the first
	// time: each marked the key as sighted instead of filling. Always 0
	// for a cache used only through Do.
	Rejected uint64 `json:"rejected"`
	// Entries is the number of stored values; DoAdmitted's sighting
	// marks are kept apart and not counted.
	Entries int `json:"entries"`
	// Bytes and MaxBytes describe the current occupancy against the byte
	// budget (MaxBytes 0 = unbounded; Bytes 0 when the cache has no
	// sizer).
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// maxSightings bounds DoAdmitted's first-sighting marks.
const maxSightings = 1024

// ErrFillPanic is the error a fill's requester and every coalesced waiter
// get when the fill panics. The panic is recovered on the fill goroutine,
// so it cannot kill the process; the returned error wraps ErrFillPanic
// and, when the panic value is an error, that error too.
var ErrFillPanic = errors.New("engine: cache fill panicked")

// call is one in-flight fill that later arrivals for the same key wait
// on. waiters counts the coalesced arrivals, so the fill can report
// whether it served anyone beyond its own requester (the "shared" trace
// attribute).
type call struct {
	done    chan struct{}
	val     any
	err     error
	waiters atomic.Int32
}

// sharedKey carries the fill's *call through the detached fill context,
// letting Waiters read the coalesced-arrival count from inside the fill.
type sharedKey struct{}

// Waiters returns, from inside a fill function, how many coalesced
// arrivals are waiting on this fill beyond the requester that started
// it (0 outside a fill, and 0 when the fill served only its own
// requester). The count is read at call time: a tracer reads it at the
// end of the fill, when every waiter of the round has registered.
func Waiters(ctx context.Context) int {
	cl, _ := ctx.Value(sharedKey{}).(*call)
	if cl == nil {
		return 0
	}
	return int(cl.waiters.Load())
}

// Cache is an LRU keyed by string, bounded by a byte budget, with
// singleflight fill deduplication: concurrent Do calls for the same
// absent key run the fill once and share the outcome. All methods are
// safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	size     func(val any) int64
	bytes    int64
	ll       *list.List               // front = most recently used
	entries  map[string]*list.Element // value: *entry
	inflight map[string]*call
	// seen is DoAdmitted's doorkeeper: keys sighted once and not yet
	// stored, newest first, at most maxSightings of them.
	seen     *list.List
	seenKeys map[string]*list.Element
	stats    CacheStats
}

type entry struct {
	key  string
	val  any
	size int64
}

// NewCache returns a cache that evicts its least recently used values
// while their summed size exceeds maxBytes (0 or negative = unbounded).
// size reports the resident bytes of a value; nil counts every value as
// 0 bytes, so nothing is evicted.
func NewCache(maxBytes int64, size func(val any) int64) *Cache {
	if maxBytes < 0 {
		maxBytes = 0 // unbounded
	}
	return &Cache{
		maxBytes: maxBytes,
		size:     size,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*call),
		seen:     list.New(),
		seenKeys: make(map[string]*list.Element),
	}
}

// lookup returns the stored entry for key and marks it most recently
// used. Caller holds c.mu.
func (c *Cache) lookup(key string) (*entry, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// Do returns the cached value for key, filling it with fill on a miss.
// The fill runs detached from ctx (context.WithoutCancel): a canceled
// requester abandons its wait — Do returns ctx.Err() — but the fill
// completes and is stored for the next arrival, since cached artifacts
// are shared infrastructure, not per-request work. Concurrent Do calls
// for the same absent key coalesce onto one fill. hit reports whether
// the value came from the store (false for the filler and for
// coalesced waiters). Failed fills are not stored and their error goes
// to every coalesced waiter of that round; a fill that panics fails with
// an error wrapping ErrFillPanic.
func (c *Cache) Do(ctx context.Context, key string, fill func(ctx context.Context) (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if en, ok := c.lookup(key); ok {
		c.stats.Hits++
		v := en.val
		c.mu.Unlock()
		return v, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		return c.wait(ctx, cl)
	}
	cl := c.begin(key)

	// WithoutCancel detaches the fill from the requester's lifetime but
	// keeps ctx values — trace spans and scheduling attributes flow into
	// the fill. The call handle rides along so the fill can ask Waiters
	// how many arrivals coalesced onto it.
	go c.finish(context.WithValue(context.WithoutCancel(ctx), sharedKey{}, cl), key, cl, fill)

	select {
	case <-cl.done:
		return cl.val, false, cl.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// DoAdmitted is Do behind a doorkeeper, the admission filter of
// TinyLFU (Einziger et al., 2017): a key is filled only on its second
// sighting. The first lookup of a key that holds no value marks the key
// as sighted and returns admitted=false without filling, and the caller
// computes without the cache. A lookup of a sighted key fills as Do
// would and reports admitted=true. The marks live in their own set of
// at most maxSightings keys, apart from the stored values, so first
// sightings never evict a value; the oldest mark goes first, and a
// stored value clears its key's mark.
//
// Unlike Do, the fill runs on the caller's goroutine under the caller's
// context: a canceled or failed fill stores nothing and keeps the mark,
// so the next lookup fills again. Coalesced arrivals wait for the fill
// and get its outcome, error included.
func (c *Cache) DoAdmitted(ctx context.Context, key string, fill func(ctx context.Context) (any, error)) (val any, hit, admitted bool, err error) {
	c.mu.Lock()
	if en, ok := c.lookup(key); ok {
		c.stats.Hits++
		v := en.val
		c.mu.Unlock()
		return v, true, true, nil
	}
	if cl, inflight := c.inflight[key]; inflight {
		val, _, err = c.wait(ctx, cl)
		return val, false, true, err
	}
	if _, sighted := c.seenKeys[key]; !sighted {
		c.stats.Rejected++
		c.seenKeys[key] = c.seen.PushFront(key)
		if c.seen.Len() > maxSightings {
			delete(c.seenKeys, c.seen.Remove(c.seen.Back()).(string))
		}
		c.mu.Unlock()
		return nil, false, false, nil
	}
	cl := c.begin(key)
	c.finish(context.WithValue(ctx, sharedKey{}, cl), key, cl, fill)
	return cl.val, false, true, cl.err
}

// wait joins an in-flight fill. The caller holds c.mu, which wait
// releases.
func (c *Cache) wait(ctx context.Context, cl *call) (any, bool, error) {
	c.stats.Coalesced++
	cl.waiters.Add(1)
	c.mu.Unlock()
	select {
	case <-cl.done:
		return cl.val, false, cl.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// begin registers a fill of key as in flight and counts the miss. The
// caller holds c.mu, which begin releases.
func (c *Cache) begin(key string) *call {
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()
	return cl
}

// finish runs the fill of cl, stores its value unless it failed, and
// releases the waiters.
func (c *Cache) finish(ctx context.Context, key string, cl *call, fill func(ctx context.Context) (any, error)) {
	cl.val, cl.err = runFill(ctx, fill)
	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err != nil {
		c.stats.Errors++
	} else {
		c.store(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
}

// runFill calls fill, turning a panic into an error wrapping ErrFillPanic.
func runFill(ctx context.Context, fill func(ctx context.Context) (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v = nil
			if rerr, ok := r.(error); ok {
				err = fmt.Errorf("%w: %w", ErrFillPanic, rerr)
			} else {
				err = fmt.Errorf("%w: %v", ErrFillPanic, r)
			}
		}
	}()
	return fill(ctx)
}

// store inserts a value under the lock, clearing its key's sighting
// mark, and evicts the least recently used entries beyond the byte
// budget. The newest entry is always kept, however large.
func (c *Cache) store(key string, val any) {
	if el, ok := c.seenKeys[key]; ok {
		c.seen.Remove(el)
		delete(c.seenKeys, key)
	}
	var size int64
	if c.size != nil {
		size = c.size(val)
	}
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*entry)
		c.bytes += size - en.size
		en.val, en.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1 {
		en := c.ll.Remove(c.ll.Back()).(*entry)
		delete(c.entries, en.key)
		c.bytes -= en.size
		c.stats.Evictions++
	}
}

// Get returns the cached value without filling, sighting or disturbing
// the stats beyond a hit.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.lookup(key)
	if !ok {
		return nil, false
	}
	c.stats.Hits++
	return en.val, true
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	return s
}
