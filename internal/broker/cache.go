package broker

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/fingerprint"
)

// sfCache is a fingerprint-pair-keyed LRU cache with singleflight fill:
// when N goroutines miss on the same key concurrently, one runs the fill
// function and the rest wait for its result. Fill errors are not cached —
// the next request retries.
type sfCache[V any] struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[fingerprint.PairKey]*list.Element
	inflight map[fingerprint.PairKey]*flight[V]

	// The counters live in the owner's stats block, bumped with
	// sync/atomic; caches may share one (the broker's evictions).
	hits, misses, coalesced, evictions *int64
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type lruEntry[V any] struct {
	key fingerprint.PairKey
	val V
}

func newSFCache[V any](capacity int, hits, misses, coalesced, evictions *int64) *sfCache[V] {
	return &sfCache[V]{
		capacity:  capacity,
		hits:      hits,
		misses:    misses,
		coalesced: coalesced,
		evictions: evictions,
		ll:        list.New(),
		items:     make(map[fingerprint.PairKey]*list.Element),
		inflight:  make(map[fingerprint.PairKey]*flight[V]),
	}
}

// do returns the cached value for key, filling it via fill on a miss.
// cached reports whether the value came from the cache (true) rather than
// from a fill this call ran or waited on (false).
func (c *sfCache[V]) do(key fingerprint.PairKey, fill func() (V, error)) (val V, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		atomic.AddInt64(c.hits, 1)
		return el.Value.(*lruEntry[V]).val, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		atomic.AddInt64(c.coalesced, 1)
		<-fl.done
		return fl.val, false, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	atomic.AddInt64(c.misses, 1)

	fl.val, fl.err = fill()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.add(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, false, fl.err
}

// peek returns a cached value without promoting it or touching the
// hit/miss counters — the read path for peers inspecting the cache, kept
// invisible to the serving statistics.
func (c *sfCache[V]) peek(key fingerprint.PairKey) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// putIfAbsent inserts a value produced outside the fill path (a warm
// entry pushed by a peer). It declines when the key is already cached or
// a fill for it is in flight — the local fill owns the slot — and
// reports whether the insert happened.
func (c *sfCache[V]) putIfAbsent(key fingerprint.PairKey, val V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return false
	}
	if _, ok := c.inflight[key]; ok {
		return false
	}
	c.add(key, val)
	return true
}

// add inserts under c.mu, evicting from the tail past capacity.
func (c *sfCache[V]) add(key fingerprint.PairKey, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*lruEntry[V]).key)
		atomic.AddInt64(c.evictions, 1)
	}
}

// len returns the number of cached entries.
func (c *sfCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
