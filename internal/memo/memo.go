// Package memo is the one bounded memo the per-member structures share:
// answers computed from data that never changes once loaded — a
// member's full-text index, its path summary — keyed by the question,
// so that no entry ever goes stale and none needs invalidating. A memo
// lives on the structure it answers for and is dropped with it.
//
// A memo keeps two generations. A hit in the old one moves into the
// current one; when an entry would take the current generation past
// the limit, it becomes the old one and a new one starts, so the memo
// holds at most twice the limit and keeps what is asked repeatedly. The
// limit and what an entry counts against it — its charge — are fixed
// when the memo is made: the owner sizes them from its own data, and
// nothing outside sets them.
package memo

import (
	"sync"
	"sync/atomic"
)

// Counts are the process-wide hit and miss counters of one kind of
// memo: every Get on a memo made with them is one or the other.
type Counts struct {
	hits, misses atomic.Uint64
}

// Load returns the hits and misses counted so far.
func (c *Counts) Load() (hits, misses uint64) { return c.hits.Load(), c.misses.Load() }

// Memo maps keys to answers in two generations, each capped at limit
// charged units. It is safe for concurrent use; a stored answer is
// shared by every caller and must not be modified.
type Memo[K comparable, V any] struct {
	limit  int
	charge func(K, V) int
	counts *Counts

	mu       sync.Mutex
	cur, old map[K]V
	used     int // charge summed over cur
	gens     int // generations started
}

// New makes a memo holding at most limit charged units a generation,
// counting its gets in counts.
func New[K comparable, V any](limit int, charge func(K, V) int, counts *Counts) *Memo[K, V] {
	return &Memo[K, V]{limit: limit, charge: charge, counts: counts}
}

// Get returns the answer memoized for key, moving an entry of the old
// generation into the current one.
func (m *Memo[K, V]) Get(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.cur[key]
	if !ok {
		if v, ok = m.old[key]; ok {
			delete(m.old, key)
			m.store(key, v)
		}
	}
	if ok {
		m.counts.hits.Add(1)
	} else {
		m.counts.misses.Add(1)
	}
	return v, ok
}

// Add memoizes v for key unless a concurrent miss already has.
func (m *Memo[K, V]) Add(key K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cur[key]; !ok {
		m.store(key, v)
	}
}

// store files an entry in cur, starting a new generation first if it
// would not fit. An entry dearer than a whole generation is not kept.
func (m *Memo[K, V]) store(key K, v V) {
	c := m.charge(key, v)
	if c > m.limit {
		return
	}
	if m.cur == nil || m.used+c > m.limit {
		m.old, m.cur, m.used = m.cur, make(map[K]V), 0
		m.gens++
	}
	m.cur[key] = v
	m.used += c
}

// Held returns the charge each generation holds — recounted entry by
// entry, not read from the running total — and how many generations
// have started.
func (m *Memo[K, V]) Held() (cur, old, gens int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.cur {
		cur += m.charge(k, v)
	}
	for k, v := range m.old {
		old += m.charge(k, v)
	}
	return cur, old, m.gens
}
