package datagen

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

func smallDBLP() DBLPConfig {
	return DBLPConfig{Seed: 1, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 3}
}

func TestDefaultConfigs(t *testing.T) {
	d := DefaultDBLPConfig()
	if d.YearFrom != 1984 || d.YearTo != 1999 || d.PubsPerVenueYear != 75 {
		t.Errorf("DefaultDBLPConfig = %+v", d)
	}
	m := DefaultMultimediaConfig()
	if m.Items < 1000 || m.MaxProbeDistance != 20 {
		t.Errorf("DefaultMultimediaConfig = %+v", m)
	}
}

func TestDBLPSwappedYearRange(t *testing.T) {
	// YearTo < YearFrom is normalised, not an error.
	doc := DBLP(DBLPConfig{Seed: 1, YearFrom: 1999, YearTo: 1998, PubsPerVenueYear: 1})
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) != 10 { // 5 venues × 2 years × 1 pub
		t.Errorf("records = %d, want 10", len(doc.Root.Children))
	}
	// Zero pubs is clamped to 1.
	doc = DBLP(DBLPConfig{Seed: 1, YearFrom: 1999, YearTo: 1999, PubsPerVenueYear: 0})
	if len(doc.Root.Children) != 5 {
		t.Errorf("records = %d, want 5", len(doc.Root.Children))
	}
}

func TestFPHostYears(t *testing.T) {
	for fpYear := range falsePositivePages {
		host := fpHostYear(fpYear)
		if host == fpYear {
			t.Errorf("host year for %d equals the planted year", fpYear)
		}
		if host < 1984 || host > 1999 {
			t.Errorf("host year %d outside the generated range", host)
		}
	}
	// The fallback path for unknown years.
	if got := fpHostYear(1990); got != 1989 {
		t.Errorf("fallback host = %d, want 1989", got)
	}
}

func TestDBLPDeterministic(t *testing.T) {
	a := DBLP(smallDBLP())
	b := DBLP(smallDBLP())
	if !xmltree.Equal(a, b) {
		t.Error("same config produced different documents")
	}
	c := DBLP(DBLPConfig{Seed: 2, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 3})
	if xmltree.Equal(a, c) {
		t.Error("different seeds produced identical documents")
	}
}

func TestDBLPValid(t *testing.T) {
	doc := DBLP(smallDBLP())
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "dblp" {
		t.Errorf("root = %q", doc.Root.Label)
	}
}

func TestDBLPNoICDEIn1985(t *testing.T) {
	doc := DBLP(smallDBLP())
	count := map[string]int{} // "venue/year" -> records
	for _, rec := range doc.Root.Children {
		var venue, year string
		for _, f := range rec.Children {
			if len(f.Children) == 0 {
				continue
			}
			switch f.Label {
			case "booktitle":
				venue = f.Children[0].Text
			case "year":
				year = f.Children[0].Text
			}
		}
		count[venue+"/"+year]++
	}
	if n := count["ICDE/1985"]; n != 0 {
		t.Errorf("ICDE 1985 has %d records, want 0 (the paper's gap)", n)
	}
	for y := 1984; y <= 1999; y++ {
		if y == ICDEYearMissing {
			continue
		}
		if n := count[fmt.Sprintf("ICDE/%d", y)]; n != 3 {
			t.Errorf("ICDE %d has %d records, want 3", y, n)
		}
	}
	if n := count["VLDB/1985"]; n != 3 {
		t.Errorf("VLDB 1985 has %d records, want 3 (only ICDE pauses)", n)
	}
}

func TestDBLPRecordShape(t *testing.T) {
	doc := DBLP(smallDBLP())
	rec := doc.Root.Children[0]
	if rec.Label != "inproceedings" {
		t.Fatalf("first record = %q", rec.Label)
	}
	if _, ok := rec.Attr("key"); !ok {
		t.Error("record has no key attribute")
	}
	var fields []string
	for _, f := range rec.Children {
		fields = append(fields, f.Label)
	}
	joined := strings.Join(fields, ",")
	for _, want := range []string{"author", "title", "pages", "year", "booktitle", "ee"} {
		if !strings.Contains(joined, want) {
			t.Errorf("record fields %v missing %q", fields, want)
		}
	}
}

func TestDBLPFalsePositivePagesPlanted(t *testing.T) {
	doc := DBLP(smallDBLP())
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	idx := fulltext.New(store)
	for fpYear, fpPages := range falsePositivePages {
		hits := idx.SearchSubstring(fpPages)
		if len(hits) != 1 {
			t.Errorf("planted pages %q found %d times, want 1", fpPages, len(hits))
			continue
		}
		// The planted range must substring-match its target year.
		if !strings.Contains(fpPages, fmt.Sprintf("%d", fpYear)) {
			t.Errorf("planted pages %q does not contain year %d", fpPages, fpYear)
		}
	}
	// Un-planted page ranges never collide with a year: searching any
	// year must only hit year cdata nodes plus the planted pages.
	for y := 1984; y <= 1999; y++ {
		for _, h := range idx.SearchSubstring(fmt.Sprintf("%d", y)) {
			p := store.Summary().String(h.Path)
			okPath := strings.HasSuffix(p, "/year/cdata@string")
			if !okPath {
				if !strings.HasSuffix(p, "/pages/cdata@string") || !isPlanted(h.Value) {
					t.Errorf("year %d hit unexpected relation %s value %q", y, p, h.Value)
				}
			}
		}
	}
}

func isPlanted(v string) bool {
	for _, fp := range falsePositivePages {
		if v == fp {
			return true
		}
	}
	return false
}

// TestDBLPCaseStudyQuery runs the Figure 7 query end-to-end at small
// scale: full-text "ICDE" + year, meet with the root excluded, and
// checks that the answers are exactly the ICDE records of that year
// (plus the documented false positive when its year is queried).
func TestDBLPCaseStudyQuery(t *testing.T) {
	doc := DBLP(smallDBLP())
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	idx := fulltext.New(store)
	for _, year := range []string{"1999", "1987", "1993"} {
		inputs := fulltext.Owners(append(idx.SearchSubstring("ICDE"), idx.SearchSubstring(year)...))
		results, _, err := core.MeetMultiContext(context.Background(), store, [][]bat.OID{inputs}, core.ExcludeRoot(store))
		if err != nil {
			t.Fatal(err)
		}
		wantFP := 0
		if year == "1993" || year == "1996" {
			wantFP = 1
		}
		var trueHits, otherHits int
		for _, r := range results {
			if store.Label(r.Meet) != "inproceedings" {
				t.Errorf("year %s: meet at %s, want records only", year, store.PathString(r.Meet))
				continue
			}
			venue, yr := recordVenueYear(store, r.Meet)
			if venue == "ICDE" && yr == year {
				trueHits++
			} else {
				otherHits++
			}
		}
		if trueHits != 3 {
			t.Errorf("year %s: %d true ICDE hits, want 3", year, trueHits)
		}
		if otherHits != wantFP {
			t.Errorf("year %s: %d false positives, want %d", year, otherHits, wantFP)
		}
	}
}

// recordVenueYear extracts booktitle and year of a record through the
// store's relational interface.
func recordVenueYear(store *monetx.Store, rec bat.OID) (venue, year string) {
	for _, c := range store.Children(rec) {
		label := store.Label(c)
		if label != "booktitle" && label != "year" {
			continue
		}
		for _, cc := range store.Children(c) {
			if t, ok := store.Text(cc); ok {
				if label == "booktitle" {
					venue = t
				} else {
					year = t
				}
			}
		}
	}
	return venue, year
}
