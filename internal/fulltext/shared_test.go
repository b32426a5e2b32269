package fulltext_test

import (
	"context"
	"slices"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/datagen"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/query"
)

// TestOwnersSubstringResultStaysShared pins the contract the memo rests
// on: the meet and the query language's `contains` read the memoized
// owner slices and write none of them, so every later caller gets the
// same ascending owners in the same slice, one an append cannot reach.
func TestOwnersSubstringResultStaysShared(t *testing.T) {
	store, err := monetx.Load(datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1996, YearTo: 1999, PubsPerVenueYear: 20}))
	if err != nil {
		t.Fatal(err)
	}
	idx := fulltext.New(store)
	needles := []string{"ICDE", "1999", "html"}
	sets := make([][]bat.OID, len(needles))
	before := make([][]bat.OID, len(needles))
	for i, n := range needles {
		if sets[i] = idx.OwnersSubstring(n); len(sets[i]) == 0 {
			t.Fatalf("fixture has no %q owners", n)
		}
		before[i] = slices.Clone(sets[i])
	}
	if res, _, err := core.MeetMultiContext(context.Background(), store, sets, core.ExcludeRoot(store)); err != nil || len(res) == 0 {
		t.Fatalf("%d meets, err = %v", len(res), err)
	}
	ans, err := query.NewEngine(store, idx).Query(`SELECT meet(e1, e2) FROM //booktitle/cdata AS e1, //year/cdata AS e2
		WHERE e1 CONTAINS 'ICDE' AND e2 CONTAINS '1999'`)
	if err != nil || len(ans.Rows) == 0 {
		t.Fatalf("%v rows, err = %v", ans, err)
	}
	for i, n := range needles {
		got := idx.OwnersSubstring(n)
		if &got[0] != &sets[i][0] {
			t.Errorf("OwnersSubstring(%q) is no longer the memoized slice", n)
		}
		if !slices.Equal(got, before[i]) || !slices.IsSorted(got) {
			t.Errorf("OwnersSubstring(%q) changed under its readers", n)
		}
		if cap(got) != len(got) {
			t.Errorf("OwnersSubstring(%q) has cap %d > len %d: an append would write into the memo", n, cap(got), len(got))
		}
	}
}
