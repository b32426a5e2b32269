package fulltext

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/datagen"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// referencePostings is the index build as it was when the token
// postings were filled during New and the rows ordered by a comparison
// sort over packed (owner, row) keys, kept verbatim: the association
// columns, the value table and every token's rows as that build left
// them. The result is an Index whose postings are already in place, so
// its Search is the eager index's Search.
func referencePostings(store *monetx.Store) *Index {
	idx := &Index{store: store, post: make(map[string][]int32)}
	sum := store.Summary()
	intern := make(map[string]valueID)
	var valueToks [][]string // tokens per interned value, deduplicated
	for _, pid := range sum.AllPaths() {
		if sum.Kind(pid) != pathsum.Attr {
			continue
		}
		rel := store.Strings(pid)
		if rel == nil {
			continue
		}
		for i := 0; i < rel.Len(); i++ {
			owner, value := rel.Head(i), rel.Tail(i)
			vid, ok := intern[value]
			if !ok {
				vid = valueID(len(idx.values))
				intern[value] = vid
				idx.values = append(idx.values, value)
				valueToks = append(valueToks, dedupTokens(appendTokens(nil, value)))
			}
			row := int32(len(idx.owners))
			idx.owners = append(idx.owners, owner)
			idx.paths = append(idx.paths, pid)
			idx.vals = append(idx.vals, vid)
			for _, tok := range valueToks[vid] {
				idx.post[tok] = append(idx.post[tok], row)
			}
		}
	}
	n := len(idx.owners)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(idx.owners[i])<<32 | uint64(uint32(i))
	}
	slices.Sort(keys)
	owners := make([]bat.OID, n)
	paths := make([]pathsum.PathID, n)
	vals := make([]valueID, n)
	inv := make([]int32, n)
	for newPos, key := range keys {
		old := int32(uint32(key))
		owners[newPos] = idx.owners[old]
		paths[newPos] = idx.paths[old]
		vals[newPos] = idx.vals[old]
		inv[old] = int32(newPos)
	}
	idx.owners, idx.paths, idx.vals = owners, paths, vals
	for _, rows := range idx.post {
		for i, r := range rows {
			rows[i] = inv[r]
		}
		if !slices.IsSorted(rows) {
			slices.Sort(rows)
		}
	}
	idx.postOnce.Do(func() {}) // the postings are in place: never build them
	idx.buildSubstringIndex()
	return idx
}

// equalityCorpus is what the two builds are compared over: Figure 1, a
// DBLP, a multimedia document, the substring fixture (mixed case,
// multi-byte runes, one value under several paths), a document whose
// owners carry attributes and no text, and 40 random trees.
func equalityCorpus(t *testing.T) map[string]*monetx.Store {
	t.Helper()
	docs := map[string]*xmltree.Document{
		"fig1":       xmltree.Fig1(),
		"dblp":       datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1996, YearTo: 1999, PubsPerVenueYear: 20}),
		"multimedia": datagen.Multimedia(datagen.MultimediaConfig{Seed: 2, Items: 200, MaxProbeDistance: 6}),
		"attr-only": xmltree.MustDocument("r", func(b *xmltree.Builder) {
			for i, v := range []string{"Bob Byte", "bob", "BYTE code", "Ähre", "bob byte"} {
				e := b.Element(b.Root(), []string{"x", "y"}[i%2], xmltree.Attr{Name: "k", Value: v}, xmltree.Attr{Name: "j", Value: "Bob"})
				b.Element(e, "x", xmltree.Attr{Name: "k", Value: v})
			}
		}),
	}
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 40; i++ {
		docs[fmt.Sprintf("random-%d", i)] = xmltree.Random(r, 120)
	}
	stores := make(map[string]*monetx.Store, len(docs)+1)
	for name, doc := range docs {
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stores[name] = s
	}
	stores["parity"] = parityIndex(t, "Bob Bytes & BOB byte").store
	return stores
}

// TestPostingsEqualEager pins that moving the token postings behind the
// first token search moved the work and changed none of it: every
// token's rows, and Search on single tokens, phrases, a trailing-token
// prefix, mixed case and non-ASCII terms, equal the eager build's.
func TestPostingsEqualEager(t *testing.T) {
	for name, store := range equalityCorpus(t) {
		ref, idx := referencePostings(store), New(store)
		if idx.TokensBuilt() {
			t.Fatalf("%s: New built the token postings", name)
		}
		if got, want := idx.Terms(), len(ref.post); got != want {
			t.Errorf("%s: Terms() = %d, eager build has %d", name, got, want)
		}
		if !reflect.DeepEqual(idx.post, ref.post) {
			t.Errorf("%s: postings differ from the eager build's", name)
		}
		terms := []string{
			"Bob Byt", "Bob Byte", "bob byte", "BOB BYTE", "Hacking & RSI", "How to Hack", "to", "Hack RSI",
			"straße über", "über Ähr", "ÄHRE", "日本語", "日本語 te", "icde1999", "conf/icde", "db conf icde", "t1", "V2", "", "&",
		}
		for tok := range ref.post {
			terms = append(terms, tok)
		}
		for i, v := range ref.values {
			if i%7 == 0 { // whole values are phrases; a cut one ends in a token prefix
				terms = append(terms, v, v[:len(v)*2/3])
			}
		}
		for _, term := range terms {
			if got, want := idx.Search(term), ref.Search(term); !slices.Equal(got, want) {
				t.Errorf("%s: Search(%q) = %v, eager build %v", name, term, got, want)
			}
		}
	}
}

// TestRowOrderEqualsKeySort pins that distributing the rows by owner in
// scan order yields the columns the packed-key sort yielded, and the
// same value table.
func TestRowOrderEqualsKeySort(t *testing.T) {
	for name, store := range equalityCorpus(t) {
		ref, idx := referencePostings(store), New(store)
		if !slices.Equal(idx.owners, ref.owners) || !slices.Equal(idx.paths, ref.paths) || !slices.Equal(idx.vals, ref.vals) {
			t.Errorf("%s: association columns differ from the key sort's", name)
		}
		if !slices.Equal(idx.values, ref.values) {
			t.Errorf("%s: value table differs", name)
		}
		if name == "attr-only" && (idx.owners[0] != idx.owners[1] || idx.paths[0] >= idx.paths[1]) {
			t.Errorf("%s: fixture's first owner should carry two attribute rows in path order", name)
		}
	}
}

// TestTokenIndexBuiltOnce pins the two lifetimes: nothing locate calls
// builds the token postings, and sixteen goroutines meeting on a cold
// index build them once.
func TestTokenIndexBuiltOnce(t *testing.T) {
	idx := dblpIndex(t)
	idx.SearchSubstring("ICDE")
	idx.OwnersSubstring("1999")
	th := NewThesaurus()
	th.Add("ICDE", "VLDB")
	idx.OwnersSubstringAny(th.Expand("icde"))
	idx.Groups(idx.SearchFunc(func(v string) bool { return v == "1999" }))
	if idx.TokensBuilt() || idx.TokenBuilds() != 0 {
		t.Fatalf("locate built the token postings (%d builds)", idx.TokenBuilds())
	}
	want := len(referencePostings(idx.store).post)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				if len(idx.Search("ICDE")) == 0 {
					t.Error("Search found nothing")
				}
			case 1:
				if len(idx.Search("vldb")) == 0 {
					t.Error("Search found nothing")
				}
			default:
				if got := idx.Terms(); got != want {
					t.Errorf("Terms() = %d, want %d", got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if !idx.TokensBuilt() || idx.TokenBuilds() != 1 {
		t.Errorf("token postings built %d times, want once", idx.TokenBuilds())
	}
}
