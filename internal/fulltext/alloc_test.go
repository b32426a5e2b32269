//go:build !race

package fulltext

// Built out under -race: the detector's instrumentation changes
// allocation counts.

import "testing"

// TestSearchSingleAlloc pins the core claim of the compact postings:
// a warm single-token search is a slice view plus exactly one copy —
// the returned []Hit — however many associations the token has.
func TestSearchSingleAlloc(t *testing.T) {
	idx := fig1Index(t)
	idx.Search("1999") // warm
	got := testing.AllocsPerRun(200, func() {
		if len(idx.Search("1999")) != 2 {
			t.Fatal("unexpected hit count")
		}
	})
	if got > 1 {
		t.Errorf("warm single-token Search allocates %.0f/op, pinned at <= 1", got)
	}
}

// TestScanAllocsSteadyState pins the pooled-bitset scan: once the pool
// is warm, a predicate query that matches nothing allocates nothing at
// all, and a matching one allocates only its result slice — O(results),
// like the posting-list searches.
func TestScanAllocsSteadyState(t *testing.T) {
	idx := fig1Index(t)
	idx.SearchFunc(func(string) bool { return false }) // warm the pool
	got := testing.AllocsPerRun(200, func() {
		if idx.SearchFunc(func(string) bool { return false }) != nil {
			t.Fatal("unexpected hits")
		}
	})
	// Steady state is 0; allow one re-allocation in case a GC empties
	// the pool mid-run.
	if got > 1 {
		t.Errorf("warm no-match scan allocates %.0f/op, pinned at <= 1", got)
	}
	got = testing.AllocsPerRun(200, func() {
		if len(idx.SearchFunc(func(v string) bool { return v == "1999" })) != 2 {
			t.Fatal("unexpected hit count")
		}
	})
	// The appends growing the two-hit result slice, plus pool headroom.
	if got > 3 {
		t.Errorf("warm matching scan allocates %.0f/op, pinned at <= 3", got)
	}
}

// TestOwnersSubstringAllocs pins the owners-only `contains` path. A
// memo hit allocates nothing. A miss allocates its result and nothing
// else — the row bitset and the trigram candidates are pooled —
// whatever the size of the value table, and a needle that matches
// nothing allocates nothing at all, whether the index rejects it
// ("absent") or only the verifier does ("abcd" against "abcXbcd").
func TestOwnersSubstringAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		idx    *Index
		hit    string
		misses []string
	}{
		{"parity", parityIndex(t, ""), "Hack", []string{"absent", "abcd"}},
		{"dblp", dblpIndex(t), "ICDE", []string{"absent"}},
	} {
		c.idx.OwnersSubstring(c.hit) // memoize, and warm the pool
		if got := testing.AllocsPerRun(200, func() {
			if len(c.idx.OwnersSubstring(c.hit)) == 0 {
				t.Fatal("no owners")
			}
		}); got != 0 {
			t.Errorf("%s: memoized OwnersSubstring(%q) allocates %.0f/op, pinned at 0", c.name, c.hit, got)
		}
		// One re-allocation of headroom each, in case a GC empties the
		// pool mid-run.
		if got := testing.AllocsPerRun(200, func() {
			if len(c.idx.OwnersSubstringMiss(c.hit)) == 0 {
				t.Fatal("no owners")
			}
		}); got > 2 {
			t.Errorf("%s: OwnersSubstring(%q) miss allocates %.0f/op, pinned at <= 2", c.name, c.hit, got)
		}
		for _, needle := range c.misses {
			if got := testing.AllocsPerRun(200, func() {
				if c.idx.OwnersSubstringMiss(needle) != nil {
					t.Fatal("unexpected owners")
				}
			}); got > 1 {
				t.Errorf("%s: no-match OwnersSubstring(%q) miss allocates %.0f/op, pinned at <= 1", c.name, needle, got)
			}
		}
	}
}
