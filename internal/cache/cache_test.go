package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestHitMiss(t *testing.T) {
	c := New(1 << 20)
	k := Key{Gen: 1, Query: "q"}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "answer", 6)
	v, ok := c.Get(k)
	if !ok || v.(string) != "answer" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.CapBytes != 1<<20 {
		t.Errorf("stats = %+v", st)
	}
	if want := charge(k, 6); st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
}

// TestGenerationInvalidates is the invalidation contract: the same
// normalized query under a bumped generation must miss.
func TestGenerationInvalidates(t *testing.T) {
	c := New(1 << 20)
	c.Put(Key{Gen: 1, Query: "q"}, "old", 3)
	if _, ok := c.Get(Key{Gen: 2, Query: "q"}); ok {
		t.Fatal("stale generation served")
	}
	if _, ok := c.Get(Key{Gen: 1, Query: "q"}); !ok {
		t.Fatal("old generation entry should still resolve under its own key")
	}
}

func TestEvictionOrder(t *testing.T) {
	// Room for exactly two single-byte entries with one-byte keys.
	c := New(2 * charge(Key{Query: "a"}, 1))
	c.Put(Key{Query: "a"}, 1, 1)
	c.Put(Key{Query: "b"}, 2, 1)
	c.Get(Key{Query: "a"}) // a is now most recently used
	c.Put(Key{Query: "c"}, 3, 1)
	if _, ok := c.Get(Key{Query: "b"}); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get(Key{Query: "a"}); !ok {
		t.Error("recently used entry a was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

// TestByteAccounting: one large value displaces several small ones.
func TestByteAccounting(t *testing.T) {
	capBytes := 4 * charge(Key{Query: "0"}, 16)
	c := New(capBytes)
	for i := 0; i < 4; i++ {
		c.Put(Key{Query: fmt.Sprint(i)}, i, 16)
	}
	if st := c.Stats(); st.Entries != 4 || st.Evictions != 0 {
		t.Fatalf("setup stats = %+v", st)
	}
	// A value charged like three small entries evicts three of them.
	bigSize := int(3*charge(Key{Query: "0"}, 16) - charge(Key{Query: "big"}, 0))
	c.Put(Key{Query: "big"}, "x", bigSize)
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (big + one survivor)", st.Entries)
	}
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
	if st.Bytes > capBytes {
		t.Errorf("bytes %d exceed cap %d", st.Bytes, capBytes)
	}
	if _, ok := c.Get(Key{Query: "3"}); !ok {
		t.Error("most recently used small entry was evicted")
	}
}

// TestOversizedValueNotStored: a value that cannot fit even in an
// empty cache is dropped instead of flushing everything.
func TestOversizedValueNotStored(t *testing.T) {
	c := New(256)
	c.Put(Key{Query: "small"}, 1, 1)
	c.Put(Key{Query: "huge"}, 2, 10_000)
	if _, ok := c.Get(Key{Query: "huge"}); ok {
		t.Error("oversized value was stored")
	}
	if _, ok := c.Get(Key{Query: "small"}); !ok {
		t.Error("oversized Put evicted existing entries")
	}
}

func TestPutReplaces(t *testing.T) {
	c := New(1 << 20)
	k := Key{Query: "a"}
	c.Put(k, 1, 100)
	c.Put(k, 2, 50)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, _ := c.Get(k); v.(int) != 2 {
		t.Errorf("Get = %v", v)
	}
	if got, want := c.Bytes(), charge(k, 50); got != want {
		t.Errorf("Bytes after replace = %d, want %d", got, want)
	}
}

func TestPurge(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 5; i++ {
		c.Put(Key{Query: fmt.Sprint(i)}, i, 8)
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Len/Bytes after purge = %d/%d", c.Len(), c.Bytes())
	}
	if st := c.Stats(); st.Purges != 5 {
		t.Errorf("purges = %d", st.Purges)
	}
	if _, ok := c.Get(Key{Query: "3"}); ok {
		t.Error("purged entry served")
	}
}

// TestDisabled: capacity zero means a pass-through cache.
func TestDisabled(t *testing.T) {
	c := New(0)
	c.Put(Key{Query: "a"}, 1, 1)
	if _, ok := c.Get(Key{Query: "a"}); ok {
		t.Error("disabled cache stored an entry")
	}
	c = New(-3)
	c.Put(Key{Query: "a"}, 1, 1)
	if c.Len() != 0 {
		t.Error("negative capacity stored an entry")
	}
}

// TestConcurrent hammers the cache from many goroutines (run with
// -race): overlapping key space forces hit, miss, replace and eviction
// paths to interleave.
func TestConcurrent(t *testing.T) {
	capBytes := 16 * charge(Key{Query: "00"}, 8)
	c := New(capBytes)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Gen: uint64(i % 3), Query: fmt.Sprint(i % 24)}
				if i%2 == 0 {
					c.Put(k, i, 8)
				} else {
					c.Get(k)
				}
				if i%50 == 0 && g == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > capBytes {
		t.Errorf("bytes %d exceed cap %d", st.Bytes, capBytes)
	}
}
