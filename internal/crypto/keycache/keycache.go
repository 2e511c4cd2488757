// Package keycache provides a small bounded LRU used to memoize derived
// per-keyword and per-field cryptographic state (PRF-derived keys,
// constructed AEAD/DET ciphers) on the gateway hot path. Derivation is
// deterministic, so a cache hit is observationally identical to
// re-deriving — the cache only removes CPU work, never changes results.
package keycache

import (
	"container/list"
	"sync"
)

// DefaultSize is a reasonable bound for per-keyword caches: large enough
// to cover a working set of hot keywords, small enough that adversarially
// many distinct keywords cannot grow memory without bound.
const DefaultSize = 1024

// Cache is a bounded LRU safe for concurrent use. The zero value is not
// usable; construct with New.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most max entries (DefaultSize if
// max <= 0).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max <= 0 {
		max = DefaultSize
	}
	return &Cache[K, V]{
		max:   max,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the cached value for key, marking it most-recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores key→val, evicting the least-recently-used entry when full.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// GetOrCompute returns the cached value for key, calling compute on a
// miss and caching the result. compute runs outside the cache lock, so
// concurrent misses on the same key may compute twice — harmless for the
// deterministic derivations this cache holds, and it keeps slow PRF work
// from serializing unrelated lookups.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() (V, error)) (V, error) {
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	c.Put(key, v)
	return v, nil
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
