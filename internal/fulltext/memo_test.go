package fulltext

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/datagen"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// randomNeedle draws what `contains` gets asked: a piece of a stored
// value — often shorter than a trigram, sometimes empty — or a needle
// no value contains.
func randomNeedle(r *rand.Rand, idx *Index) string {
	switch k := r.Intn(8); {
	case k == 0:
		return ""
	case k <= 2:
		return fmt.Sprintf("zz%d", r.Intn(1<<20))
	}
	v := idx.values[r.Intn(len(idx.values))]
	i := r.Intn(len(v) + 1)
	return v[i : i+r.Intn(min(8, len(v)-i)+1)]
}

// memoIndexes is what the memo is exercised on: a DBLP member and
// random trees with enough rows for the memo to hold a few needles.
func memoIndexes(t *testing.T, r *rand.Rand) map[string]*Index {
	t.Helper()
	out := map[string]*Index{"dblp": dblpIndex(t)}
	for len(out) < 9 {
		store, err := monetx.Load(xmltree.Random(r, 120))
		if err != nil {
			t.Fatal(err)
		}
		if idx := New(store); len(idx.owners) >= 12 {
			out[fmt.Sprintf("random-%d", len(out))] = idx
		}
	}
	return out
}

// TestOwnersSubstringMemo pins the memo against the path it bypasses: a
// needle's first answer and its memoized answer both equal the located
// one; neither generation ever holds more than its cap, however many
// distinct needles — most matching nothing — arrive; and once two new
// generations have started, the needles asked first are located again,
// correctly.
func TestOwnersSubstringMemo(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for name, idx := range memoIndexes(t, r) {
		limit := len(idx.owners)
		var asked []string
		swaps := 0
		_, _, gen := idx.memo.Held()
		for i := 0; swaps < 2; i++ {
			if i == 20000 {
				t.Fatalf("%s: %d needles started %d generations, want 2", name, i, swaps)
			}
			needle := randomNeedle(r, idx)
			want := idx.OwnersSubstringMiss(needle)
			for _, ask := range []string{"first", "again"} {
				if got := idx.OwnersSubstring(needle); !slices.Equal(got, want) {
					t.Fatalf("%s: OwnersSubstring(%q), %s = %v, located %v", name, needle, ask, got, want)
				}
			}
			cur, old, g := idx.memo.Held()
			if cur > limit || old > limit {
				t.Fatalf("%s: generations hold %d and %d, cap %d", name, cur, old, limit)
			}
			if g != gen && gen != 0 {
				swaps++
			}
			gen = g
			asked = append(asked, needle)
		}
		for _, needle := range asked[:min(len(asked), 20)] {
			if got, want := idx.OwnersSubstring(needle), idx.OwnersSubstringMiss(needle); !slices.Equal(got, want) {
				t.Errorf("%s: re-asked OwnersSubstring(%q) = %v, located %v", name, needle, got, want)
			}
		}
	}
}

// TestOwnersSubstringMemoCounts pins the counters the server exports:
// a located needle is one miss, a memoized one one hit.
func TestOwnersSubstringMemoCounts(t *testing.T) {
	idx := fig1Index(t)
	hits, misses := MemoCounts()
	idx.OwnersSubstring("Hack")
	idx.OwnersSubstring("Hack")
	idx.OwnersSubstring("absent")
	h, m := MemoCounts()
	if h-hits != 1 || m-misses != 2 {
		t.Errorf("counted %d hits and %d misses, want 1 and 2", h-hits, m-misses)
	}
}

// TestOwnersSubstringMemoConcurrent has eight goroutines ask random
// needles of one index at once, for the race detector; every answer
// must equal the located one.
func TestOwnersSubstringMemoConcurrent(t *testing.T) {
	idx := dblpIndex(t)
	r := rand.New(rand.NewSource(8))
	needles := make([]string, 200)
	want := make([][]bat.OID, len(needles))
	for i := range needles {
		needles[i] = randomNeedle(r, idx)
		want[i] = idx.OwnersSubstringMiss(needles[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 400; k++ {
				i := r.Intn(len(needles))
				if got := idx.OwnersSubstring(needles[i]); !slices.Equal(got, want[i]) {
					t.Errorf("OwnersSubstring(%q) = %v, located %v", needles[i], got, want[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if cur, old, _ := idx.memo.Held(); cur > len(idx.owners) || old > len(idx.owners) {
		t.Errorf("generations hold %d and %d, cap %d", cur, old, len(idx.owners))
	}
}

// topkVocabulary is the serving benchmark's topk_cold terms: the
// generator's last names and title words, one needle each.
var topkVocabulary = []string{
	"Schmidt", "Kersten", "Windhouwer", "Waas", "Boncz", "Struzik", "Meyer", "Fischer", "Weber", "Wagner",
	"Becker", "Schulz", "Hoffmann", "Koch", "Bauer", "Richter", "Klein", "Wolf", "Schroeder", "Neumann",
	"Schwarz", "Zimmermann", "Braun", "Krueger", "Hofmann", "Hartmann", "Lange", "Schmitt", "Werner", "Krause",
	"Lehmann", "Maier", "Bit", "Byte",
	"Efficient", "Scalable", "Adaptive", "Incremental", "Distributed", "Parallel", "Declarative", "Semistructured",
	"Relational", "Temporal", "Spatial", "Approximate", "Optimal", "Robust", "Dynamic", "Query", "Storage",
	"Indexing", "Retrieval", "Processing", "Mining", "Integration", "Optimization", "Evaluation", "Compression",
	"Caching", "Replication", "Recovery", "Clustering", "Partitioning", "Databases", "Documents", "Streams",
	"Trees", "Graphs", "Views", "Schemas", "Transactions", "Workloads", "Architectures", "Engines", "Warehouses",
	"Repositories", "Hierarchies", "Collections",
}

// BenchmarkOwnersSubstringMiss measures what the memo saves: locating
// the topk_cold vocabulary, every needle a miss, on one of the serving
// benchmark's DBLP members. One op is the whole vocabulary.
func BenchmarkOwnersSubstringMiss(b *testing.B) {
	store, err := monetx.Load(datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 40}))
	if err != nil {
		b.Fatal(err)
	}
	idx := New(store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, needle := range topkVocabulary {
			ownersSink = idx.OwnersSubstringMiss(needle)
		}
	}
}

var ownersSink []bat.OID

// referenceGrams is the trigram table as it was before its buckets were
// gap-coded: one []int32 CSR of plain value ids, built by the same
// counting sort.
func referenceGrams(values []string) (start, vids []int32) {
	start = make([]int32, gramBuckets+1)
	last := make([]int32, gramBuckets)
	eachGram := func(visit func(h uint32, vid int32)) {
		for i := range last {
			last[i] = -1
		}
		for vid, v := range values {
			for i := 0; i+gramLen <= len(v); i++ {
				if h := gramHash(v[i], v[i+1], v[i+2]); last[h] != int32(vid) {
					last[h] = int32(vid)
					visit(h, int32(vid))
				}
			}
		}
	}
	eachGram(func(h uint32, _ int32) { start[h+1]++ })
	for h := 0; h < gramBuckets; h++ {
		start[h+1] += start[h]
	}
	vids = make([]int32, start[gramBuckets])
	eachGram(func(h uint32, vid int32) {
		vids[start[h]] = vid
		start[h]++
	})
	copy(start[1:], start)
	start[0] = 0
	return start, vids
}

// wideGapStore holds "QQQ" in its first and last values with 20,000
// others between, so that bucket's second gap takes three bytes.
func wideGapStore(t *testing.T) *monetx.Store {
	doc := xmltree.MustDocument("r", func(b *xmltree.Builder) {
		b.Text(b.Element(b.Root(), "a"), "QQQ first")
		for i := 0; i < 20000; i++ {
			b.Text(b.Element(b.Root(), "a"), fmt.Sprintf("n%05d", i))
		}
		b.Text(b.Element(b.Root(), "a"), "last QQQ")
	})
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestGramPostingsRoundTrip pins the packing: every bucket decodes to
// the ids the plain CSR lists, narrowing by a bucket keeps exactly the
// plain intersection, and the packed table is no larger than the plain
// one's 4 bytes an entry.
func TestGramPostingsRoundTrip(t *testing.T) {
	stores := equalityCorpus(t)
	stores["wide-gaps"] = wideGapStore(t)
	for name, store := range stores {
		idx := New(store)
		start, vids := referenceGrams(idx.values)
		var prev []int32
		for h := uint32(0); h < gramBuckets; h++ {
			want := vids[start[h]:start[h+1]]
			if got := idx.gramPosting(nil, h); !slices.Equal(got, want) {
				t.Fatalf("%s: bucket %d decodes to %v, plain CSR %v", name, h, got, want)
			}
			if len(want) == 0 {
				continue
			}
			for _, cand := range [][]int32{prev, want} {
				if got := idx.narrow(slices.Clone(cand), h); !slices.Equal(got, bat.IntersectSorted(nil, cand, want)) {
					t.Fatalf("%s: narrowing %v by bucket %d gives %v", name, cand, h, got)
				}
			}
			prev = want
		}
		if len(idx.grams) > 4*len(vids) {
			t.Errorf("%s: %d packed bytes for %d entries", name, len(idx.grams), len(vids))
		}
		if name == "wide-gaps" && len(idx.grams) == len(vids) {
			t.Errorf("%s: every gap took one byte", name)
		}
	}
}
