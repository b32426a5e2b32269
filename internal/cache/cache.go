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
package cache

import (
	"container/list"
	"sync"

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
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`     // charged size of all entries
	CapBytes  int64  `json:"cap_bytes"` // byte budget; 0 = disabled
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Purges    uint64 `json:"purges"` // entries dropped by Purge
}

type entry struct {
	key  Key
	val  any
	size int64 // charged bytes, overhead included
}

// LRU is a byte-bounded least-recently-used cache, safe for concurrent
// use. A capacity of zero (or negative) disables caching: every Get
// misses and Put is a no-op.
type LRU struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	stats    Stats
}

// New returns an LRU holding at most maxBytes of charged entry size.
func New(maxBytes int64) *LRU {
	return &LRU{
		capBytes: max(maxBytes, 0),
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
	}
}

// charge returns the bytes an entry of the given value size costs.
func charge(k Key, size int) int64 {
	if size < 0 {
		size = 0
	}
	return int64(size) + int64(len(k.Query)) + entryOverhead
}

// Get returns the value cached under k and marks it most recently
// used.
func (c *LRU) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
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
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry)
		c.bytes += sz - e.size
		e.val, e.size = v, sz
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&entry{key: k, val: v, size: sz})
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
