package fulltext

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/datagen"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

func fig1Index(t *testing.T) *Index {
	t.Helper()
	s, err := monetx.Load(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	return New(s)
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hacking & RSI", []string{"hacking", "rsi"}},
		{"How to Hack", []string{"how", "to", "hack"}},
		{"1999", []string{"1999"}},
		{"BB99", []string{"bb99"}},
		{"", nil},
		{"!!!", nil},
		{"a-b_c", []string{"a", "b", "c"}},
		{"Ben", []string{"ben"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSearchPaperExamples(t *testing.T) {
	idx := fig1Index(t)
	// Paper Section 3.1: full-text "Ben" yields ⟨o6,"Ben"⟩.
	hits := idx.Search("Ben")
	if len(hits) != 1 || hits[0].Owner != 6 || hits[0].Value != "Ben" {
		t.Errorf(`Search("Ben") = %v, want owner o6`, hits)
	}
	// "Bit" yields ⟨o8,"Bit"⟩.
	hits = idx.Search("Bit")
	if len(hits) != 1 || hits[0].Owner != 8 {
		t.Errorf(`Search("Bit") = %v, want owner o8`, hits)
	}
	// "1999" yields ⟨o12,"1999"⟩ and ⟨o19,"1999"⟩.
	hits = idx.Search("1999")
	if len(hits) != 2 || hits[0].Owner != 12 || hits[1].Owner != 19 {
		t.Errorf(`Search("1999") = %v, want owners o12,o19`, hits)
	}
	// "Bob" and "Byte" both resolve to the same association ⟨o15,"Bob Byte"⟩.
	for _, term := range []string{"Bob", "Byte"} {
		hits = idx.Search(term)
		if len(hits) != 1 || hits[0].Owner != 15 || hits[0].Value != "Bob Byte" {
			t.Errorf("Search(%q) = %v, want owner o15", term, hits)
		}
	}
}

func TestSearchCaseInsensitive(t *testing.T) {
	idx := fig1Index(t)
	for _, term := range []string{"ben", "BEN", "Ben"} {
		if hits := idx.Search(term); len(hits) != 1 || hits[0].Owner != 6 {
			t.Errorf("Search(%q) = %v", term, hits)
		}
	}
}

func TestSearchAttributeValues(t *testing.T) {
	idx := fig1Index(t)
	hits := idx.Search("BB99")
	if len(hits) != 1 || hits[0].Owner != 3 {
		t.Errorf(`Search("BB99") = %v, want the owning article o3`, hits)
	}
}

func TestSearchMisses(t *testing.T) {
	idx := fig1Index(t)
	if hits := idx.Search("absent"); len(hits) != 0 {
		t.Errorf("Search(absent) = %v", hits)
	}
	if hits := idx.Search(""); len(hits) != 0 {
		t.Errorf("Search(empty) = %v", hits)
	}
	if hits := idx.Search("   "); len(hits) != 0 {
		t.Errorf("Search(blank) = %v", hits)
	}
}

func TestSearchPhrase(t *testing.T) {
	idx := fig1Index(t)
	hits := idx.Search("Bob Byte")
	if len(hits) != 1 || hits[0].Owner != 15 {
		t.Errorf(`Search("Bob Byte") = %v`, hits)
	}
	// Phrase whose tokens exist but not contiguously in one value.
	if hits := idx.Search("Bob Hack"); len(hits) != 0 {
		t.Errorf(`Search("Bob Hack") = %v, want none`, hits)
	}
}

func TestSearchSubstring(t *testing.T) {
	idx := fig1Index(t)
	// The paper's `contains` is substring-based: 'Hack' occurs in two titles.
	hits := idx.SearchSubstring("Hack")
	if len(hits) != 2 || hits[0].Owner != 10 || hits[1].Owner != 17 {
		t.Errorf(`SearchSubstring("Hack") = %v, want owners o10,o17`, hits)
	}
	// Case sensitive.
	if hits := idx.SearchSubstring("hack"); len(hits) != 0 {
		t.Errorf(`SearchSubstring("hack") = %v, want none (case-sensitive)`, hits)
	}
	if hits := idx.SearchSubstring(""); hits != nil {
		t.Errorf("SearchSubstring(empty) = %v", hits)
	}
}

func TestSearchFunc(t *testing.T) {
	idx := fig1Index(t)
	hits := idx.SearchFunc(func(v string) bool { return strings.HasPrefix(v, "B") })
	// "Bit", "Ben", "Bob Byte", "BB99", "BK99".
	if len(hits) != 5 {
		t.Errorf("SearchFunc(prefix B) returned %d hits: %v", len(hits), hits)
	}
}

func TestOwnersDedup(t *testing.T) {
	hits := []Hit{{Owner: 5}, {Owner: 3}, {Owner: 5}}
	if got := Owners(hits); !reflect.DeepEqual(got, []bat.OID{3, 5}) {
		t.Errorf("Owners = %v, want [3 5]", got)
	}
}

func TestGroups(t *testing.T) {
	idx := fig1Index(t)
	// "1999" hits o12 and o19, both at the same year/cdata path.
	groups := idx.Groups(idx.Search("1999"))
	if len(groups) != 1 {
		t.Fatalf("Groups = %v, want one path group", groups)
	}
	for p, oids := range groups {
		if got := idx.Store().Summary().String(p); got != "/bibliography/institute/article/year/cdata" {
			t.Errorf("group path = %s", got)
		}
		if !reflect.DeepEqual(oids, []bat.OID{12, 19}) {
			t.Errorf("group OIDs = %v, want [12 19]", oids)
		}
	}
	// "Hack" substring hits two different title cdata nodes → one group;
	// adding "Ben" (different path) makes two groups.
	mixed := append(idx.SearchSubstring("Hack"), idx.Search("Ben")...)
	groups = idx.Groups(mixed)
	if len(groups) != 2 {
		t.Errorf("Groups(mixed) has %d path groups, want 2", len(groups))
	}
}

func TestIndexMatchesNaiveScan(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 30; i++ {
		doc := xmltree.Random(r, 80)
		store, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		idx := New(store)
		// Collect every string in the document, then check that token
		// search through the index equals a naive substring-token scan.
		terms := map[string]bool{}
		doc.Walk(func(n *xmltree.Node) bool {
			for _, tok := range Tokenize(n.Text) {
				terms[tok] = true
			}
			for _, a := range n.Attrs {
				for _, tok := range Tokenize(a.Value) {
					terms[tok] = true
				}
			}
			return true
		})
		for term := range terms {
			got := Owners(idx.Search(term))
			var want []bat.OID
			doc.Walk(func(n *xmltree.Node) bool {
				for _, tok := range Tokenize(n.Text) {
					if tok == term {
						want = append(want, n.OID)
					}
				}
				for _, a := range n.Attrs {
					for _, tok := range Tokenize(a.Value) {
						if tok == term {
							want = append(want, n.OID)
						}
					}
				}
				return true
			})
			if want = bat.SortDedup(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("doc %d term %q: index %v, naive %v", i, term, got, want)
			}
		}
	}
}

func TestTermsCount(t *testing.T) {
	idx := fig1Index(t)
	if idx.Terms() == 0 {
		t.Error("index has no terms")
	}
}

func dblpIndex(t testing.TB) *Index {
	t.Helper()
	s, err := monetx.Load(datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1996, YearTo: 1999, PubsPerVenueYear: 20}))
	if err != nil {
		t.Fatal(err)
	}
	return New(s)
}

// TestSearchSubstringRowOrder pins what callers of SearchSubstring
// rely on and the trigram index must not disturb: hits arrive in
// (owner, path) row order, each matching association exactly once, and
// OwnersSubstring is the distinct owners of the same hits.
func TestSearchSubstringRowOrder(t *testing.T) {
	for _, c := range []struct {
		name    string
		idx     *Index
		needles []string
	}{
		{"fig1", fig1Index(t), []string{"Hack", "1999", "B", "Bi", "Bit", "99"}},
		{"dblp", dblpIndex(t), []string{"ICDE", "1999", "html", "Bit", "db/conf/icde/icde1999.html", "9"}},
		{"parity", parityIndex(t, "abcd"), []string{"abcd", "bcd", "aaaa", "aaaaaaa", "1999", "ße", "a"}},
	} {
		for i, needle := range c.needles {
			hits := c.idx.SearchSubstring(needle)
			if i == 0 && len(hits) == 0 {
				t.Errorf("%s: fixture has no %q hits", c.name, needle)
			}
			if !slices.Equal(hits, sweepSubstring(c.idx, needle)) {
				t.Errorf("%s: SearchSubstring(%q) differs from the row sweep", c.name, needle)
			}
			if !slices.IsSortedFunc(hits, func(a, b Hit) int {
				return cmp.Or(cmp.Compare(a.Owner, b.Owner), cmp.Compare(a.Path, b.Path))
			}) {
				t.Errorf("%s: SearchSubstring(%q) not in (owner, path) order", c.name, needle)
			}
			if got, want := c.idx.OwnersSubstring(needle), Owners(hits); !slices.Equal(got, want) {
				t.Errorf("%s: OwnersSubstring(%q) = %v, want %v", c.name, needle, got, want)
			}
		}
	}
}
