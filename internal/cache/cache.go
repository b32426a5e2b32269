// Package cache provides the query-result cache of the ncqd server: a
// mutex-guarded LRU keyed by (corpus generation, normalized query).
//
// The generation is part of the key, so any corpus mutation — which
// bumps the generation — implicitly invalidates every cached result:
// lookups for the new generation cannot match entries computed under
// the old one, and the stale entries age out at the cold end of the
// LRU list (or are dropped eagerly via Purge). Including the
// generation also makes a slow query racing a mutation harmless: its
// insert lands under the generation it was computed against and can
// never be served to a post-mutation client.
//
// Capacity is accounted in bytes, not entries: callers pass the
// approximate encoding size of each value with Put, and the LRU evicts
// from the cold end until the total charged size fits the budget. One
// huge result therefore displaces many small ones instead of hiding
// behind an entry count.
//
// An optional TTL (WithTTL) additionally expires entries by age:
// lookups past an entry's deadline miss and drop the entry. The
// generation key already rules out stale results, so the TTL is an
// admission-control knob — it caps how long a rarely-hit result may
// occupy budget on a corpus that never mutates.
package cache

import (
	"container/list"
	"sync"
	"time"

	"ncq/internal/metrics"
)

// Key identifies one cached result.
type Key struct {
	Gen   uint64 // corpus generation the result was computed against
	Query string // normalized request (doc, mode, terms/query, options)
}

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map bucket share, key struct) charged on top of the key
// string and the caller-supplied value size.
const entryOverhead = 128

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`     // charged size of all entries
	CapBytes    int64  `json:"cap_bytes"` // byte budget; 0 = disabled
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"` // entries dropped past their TTL
	Purges      uint64 `json:"purges"`      // entries dropped by Purge
}

type entry struct {
	key     Key
	val     any
	size    int64     // charged bytes, overhead included
	expires time.Time // zero = never
}

// LRU is a byte-bounded least-recently-used cache, safe for concurrent
// use. A capacity of zero (or negative) disables caching: every Get
// misses and Put is a no-op.
type LRU struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	ttl      time.Duration    // 0 = entries never expire
	now      func() time.Time // injectable for tests
	ll       *list.List       // front = most recently used
	items    map[Key]*list.Element
	stats    Stats
}

// Option customises an LRU.
type Option func(*LRU)

// WithTTL expires entries d after insertion; d <= 0 (the default)
// means entries never expire by age.
func WithTTL(d time.Duration) Option {
	return func(c *LRU) {
		if d > 0 {
			c.ttl = d
		}
	}
}

// WithClock injects the time source used for TTL bookkeeping — tests
// substitute a manual clock to make expiry deterministic.
func WithClock(now func() time.Time) Option {
	return func(c *LRU) {
		if now != nil {
			c.now = now
		}
	}
}

// New returns an LRU holding at most maxBytes of charged entry size.
func New(maxBytes int64, opts ...Option) *LRU {
	if maxBytes < 0 {
		maxBytes = 0
	}
	c := &LRU{
		capBytes: maxBytes,
		now:      time.Now,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// charge returns the bytes an entry of the given value size costs.
func charge(k Key, size int) int64 {
	if size < 0 {
		size = 0
	}
	return int64(size) + int64(len(k.Query)) + entryOverhead
}

// Get returns the value cached under k and marks it most recently
// used. An entry past its TTL deadline counts as a miss and is dropped
// on the spot.
func (c *LRU) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.stats.Expirations++
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put caches v under k, charging size bytes for it (the caller's
// approximation of the value's encoded size, typically its JSON
// length), and evicts least recently used entries until the budget
// fits again. A value whose charge alone exceeds the budget is not
// stored at all.
func (c *LRU) Put(k Key, v any, size int) {
	if c.capBytes == 0 {
		return
	}
	sz := charge(k, size)
	if sz > c.capBytes {
		return // would evict the whole cache and still not fit
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry)
		c.bytes += sz - e.size
		e.val, e.size, e.expires = v, sz, expires
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&entry{key: k, val: v, size: sz, expires: expires})
		c.bytes += sz
	}
	for c.bytes > c.capBytes {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.stats.Evictions++
	}
}

// Purge drops every entry. The server calls it on corpus mutations to
// free memory immediately rather than waiting for stale generations to
// age out.
func (c *LRU) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Purges += uint64(c.ll.Len())
	c.ll.Init()
	clear(c.items)
	c.bytes = 0
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the charged size of all cached entries.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.ll.Len()
	st.Bytes = c.bytes
	st.CapBytes = c.capBytes
	return st
}

// Register exposes the cache's counters on reg as the ncq_cache_*
// series, sampled at exposition time.
func (c *LRU) Register(reg *metrics.Registry) {
	for _, m := range []struct {
		add        func(name, help string, fn func() float64)
		name, help string
		value      func(Stats) float64
	}{
		{reg.CounterFunc, "ncq_cache_hits_total", "Result cache lookups answered from the cache.",
			func(st Stats) float64 { return float64(st.Hits) }},
		{reg.CounterFunc, "ncq_cache_misses_total", "Result cache lookups that fell through to execution.",
			func(st Stats) float64 { return float64(st.Misses) }},
		{reg.GaugeFunc, "ncq_cache_hit_ratio", "Lifetime cache hit ratio: hits / (hits + misses); 0 before any lookup.",
			func(st Stats) float64 { return float64(st.Hits) / max(1, float64(st.Hits+st.Misses)) }},
		{reg.GaugeFunc, "ncq_cache_entries", "Entries currently resident in the result cache.",
			func(st Stats) float64 { return float64(st.Entries) }},
		{reg.GaugeFunc, "ncq_cache_bytes", "Approximate bytes currently retained by the result cache.",
			func(st Stats) float64 { return float64(st.Bytes) }},
		{reg.GaugeFunc, "ncq_cache_cap_bytes", "Configured byte capacity of the result cache.",
			func(st Stats) float64 { return float64(st.CapBytes) }},
		{reg.CounterFunc, "ncq_cache_evictions_total", "Entries evicted from the result cache to stay within capacity.",
			func(st Stats) float64 { return float64(st.Evictions) }},
	} {
		m.add(m.name, m.help, func() float64 { return m.value(c.Stats()) })
	}
}
