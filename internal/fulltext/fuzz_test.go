package fulltext

import (
	"slices"
	"strings"
	"testing"
	"unicode"

	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// FuzzTokenize checks the tokenizer's postconditions on arbitrary
// input: tokens are non-empty, lower-case, and consist of letters and
// digits only.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"Hacking & RSI", "1999", "", "!!!", "a-b_c",
		"Bob Byte", "ÄÖÜ straße", "日本語 text", "\x00\xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, tok := range Tokenize(in) {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator %q", tok, r)
				}
				if unicode.IsUpper(r) {
					t.Fatalf("token %q not lower-cased", tok)
				}
			}
		}
	})
}

// parityIndex is the fixture of FuzzSubstringParity: multi-byte runes,
// a value made of one repeated trigram, values shorter than a trigram,
// a value holding every trigram of "abcd" but not "abcd" (only the
// verifier can reject it), one value carried by several rows under
// different paths, and the fuzzed extra value both as character data
// and as an attribute.
func parityIndex(t testing.TB, extra string) *Index {
	doc := xmltree.MustDocument("bib", func(b *xmltree.Builder) {
		for i, v := range []string{
			"How to Hack", "Hacking & RSI", "aaaaaa", "ab", "a", "1999", "1999",
			"straße über Ähre", "日本語 text", "db/conf/icde/icde1999.html", "abcXbcd", extra,
		} {
			rec := b.Element(b.Root(), []string{"article", "book"}[i%2], xmltree.Attr{Name: "key", Value: v})
			b.Text(b.Element(rec, "title"), v)
		}
	})
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	return New(store)
}

// sweepSubstring is the reference answer: strings.Contains over every
// association row, in row order, using none of the index's tables.
func sweepSubstring(idx *Index, sub string) []Hit {
	var out []Hit
	for r, vid := range idx.vals {
		if v := idx.values[vid]; sub != "" && strings.Contains(v, sub) {
			out = append(out, Hit{Owner: idx.owners[r], Path: idx.paths[r], Value: v})
		}
	}
	return out
}

// FuzzSubstringParity checks that the trigram index and the memo change
// the cost of `contains` and nothing else: on arbitrary needles, the
// indexed hits equal the row sweep's element for element, and the
// owners-only path equals Owners of them when it locates the needle and
// again when the memo answers.
func FuzzSubstringParity(f *testing.F) {
	for _, seed := range [][2]string{
		{"Hack", ""}, {"abcd", "abcd"}, {"abcd", ""}, {"aaaaaaa", ""}, {"", "x"}, {"a", "a"}, {"aa", "aaa"}, {"aaa", "aaaa"}, {"aaaa", "aaaaa"},
		{"ße", "Maße"}, {"\xc3", "é"}, {"本語", "日本語"}, {"\xff\xfe\xfd", "\xff\xfe\xfd\xfc"},
		{"1999", "1999"}, {"icde1999.html", "ICDE"}, {"Hack & RSI", "Hack & RSI"},
		{"a needle longer than every value in the fixture, extra included", "short"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, needle, extra string) {
		idx := parityIndex(t, extra)
		want := sweepSubstring(idx, needle)
		if got := idx.SearchSubstring(needle); !slices.Equal(got, want) {
			t.Fatalf("SearchSubstring(%q) = %v, row sweep %v", needle, got, want)
		}
		for _, ask := range []string{"miss", "hit"} {
			if got, want := idx.OwnersSubstring(needle), Owners(want); !slices.Equal(got, want) {
				t.Fatalf("OwnersSubstring(%q), %s = %v, want %v", needle, ask, got, want)
			}
		}
	})
}
