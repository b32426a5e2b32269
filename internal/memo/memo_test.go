package memo

import (
	"math/rand"
	"sync"
	"testing"
)

// TestGenerations pins the two-generation rule on string keys charged
// by length: no generation holds more than the limit, cur's running
// total equals its entries' charges, an old-generation hit moves into
// cur, an entry dearer than the limit is not kept, and the counters
// see every Get.
func TestGenerations(t *testing.T) {
	var counts Counts
	m := New(10, func(k string, v int) int { return len(k) }, &counts)
	check := func() {
		t.Helper()
		cur, old, _ := m.Held()
		if cur > 10 || old > 10 || cur != m.used {
			t.Fatalf("generations hold %d and %d (booked %d), limit 10", cur, old, m.used)
		}
	}
	m.Add("aaaa", 1)
	m.Add("bbbb", 2)
	check()
	m.Add("cccc", 3) // 12 > 10: aaaa and bbbb become old
	check()
	if _, _, gens := m.Held(); gens != 2 {
		t.Fatalf("%d generations started, want 2", gens)
	}
	if v, ok := m.Get("aaaa"); !ok || v != 1 {
		t.Fatalf("Get(aaaa) from old = %d, %t", v, ok)
	}
	if _, ok := m.old["aaaa"]; ok {
		t.Fatal("an old-generation hit stayed in old")
	}
	if _, ok := m.cur["aaaa"]; !ok {
		t.Fatal("an old-generation hit did not move into cur")
	}
	check()
	m.Add("xxxxxxxxxxx", 4) // 11 > 10
	if _, ok := m.Get("xxxxxxxxxxx"); ok {
		t.Fatal("an entry dearer than a generation was kept")
	}
	if _, ok := m.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	if h, mi := counts.Load(); h != 1 || mi != 2 {
		t.Fatalf("counted %d hits and %d misses, want 1 and 2", h, mi)
	}
}

// TestAddKeepsFirst: of two concurrent misses on one key, the first
// stored answer stays.
func TestAddKeepsFirst(t *testing.T) {
	m := New(100, func(int, int) int { return 1 }, new(Counts))
	m.Add(7, 1)
	m.Add(7, 2)
	if v, _ := m.Get(7); v != 1 {
		t.Fatalf("Get(7) = %d, want the first answer 1", v)
	}
}

// TestConcurrent has eight goroutines get and add random keys at once,
// for the race detector; a hit must return the key's own value.
func TestConcurrent(t *testing.T) {
	m := New(64, func(int, int) int { return 3 }, new(Counts))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := r.Intn(100)
				if v, ok := m.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				} else if !ok {
					m.Add(k, k*k)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if cur, old, _ := m.Held(); cur > 64 || old > 64 {
		t.Errorf("generations hold %d and %d, limit 64", cur, old)
	}
}
