package fulltext

import (
	"reflect"
	"slices"
	"testing"

	"ncq/internal/bat"
)

func TestThesaurusExpand(t *testing.T) {
	th := NewThesaurus()
	th.Add("car", "automobile", "vehicle")
	got := th.Expand("car")
	want := []string{"automobile", "car", "vehicle"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Expand(car) = %v, want %v", got, want)
	}
	// Symmetric: expanding a synonym yields the same class.
	if got := th.Expand("vehicle"); !reflect.DeepEqual(got, want) {
		t.Errorf("Expand(vehicle) = %v, want %v", got, want)
	}
	// Unknown terms expand to themselves.
	if got := th.Expand("boat"); !reflect.DeepEqual(got, []string{"boat"}) {
		t.Errorf("Expand(boat) = %v", got)
	}
}

func TestThesaurusTransitive(t *testing.T) {
	th := NewThesaurus()
	th.Add("a", "b")
	th.Add("b", "c")
	th.Add("x", "y")
	got := th.Expand("a")
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Expand(a) = %v, want merged class", got)
	}
	if got := th.Expand("x"); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("Expand(x) = %v, classes leaked", got)
	}
}

// TestThesaurusCaseFolding: an entry keeps its case, because it is
// matched as written; only the lookup folds case, and the term as typed
// joins its class's entries.
func TestThesaurusCaseFolding(t *testing.T) {
	th := NewThesaurus()
	th.Add("Car", "AUTOMOBILE")
	if got, want := th.Expand("car"), []string{"AUTOMOBILE", "Car", "car"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Expand(car) = %v, want %v", got, want)
	}
	if got, want := th.Expand("Car"), []string{"AUTOMOBILE", "Car"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Expand(Car) = %v, want %v", got, want)
	}
}

func TestThesaurusEmptyAdd(t *testing.T) {
	th := NewThesaurus()
	th.Add("", "")
	th.Add("  ", "\t")
	if len(th.classes) != 0 {
		t.Errorf("blank adds made classes %v", th.classes)
	}
	if got := th.Expand(""); !reflect.DeepEqual(got, []string{""}) {
		t.Errorf("Expand(empty) = %v", got)
	}
}

// TestThesaurusMultiWordExpandsToItself: a phrase is one entry, not
// its tokens, so a phrase no class names expands to itself and a phrase
// entry broadens as a whole.
func TestThesaurusMultiWordExpandsToItself(t *testing.T) {
	th := NewThesaurus()
	th.Add("a", "b")
	if got := th.Expand("a b"); !reflect.DeepEqual(got, []string{"a b"}) {
		t.Errorf("Expand(phrase) = %v, want the phrase itself", got)
	}
	th.Add(" database system ", "DBMS")
	if got, want := th.Expand("dbms"), []string{"DBMS", "database system", "dbms"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Expand(dbms) = %v, want %v", got, want)
	}
	if got := th.Expand("database"); !reflect.DeepEqual(got, []string{"database"}) {
		t.Errorf("Expand(database) = %v: a phrase entry's tokens are not entries", got)
	}
}

// TestOwnersSubstringAny pins the broadened locate: the sorted union of
// the memoized owners of every needle, built without writing into any
// of them, and the memo's own slice for a single needle.
func TestOwnersSubstringAny(t *testing.T) {
	idx := fig1Index(t)
	th := NewThesaurus()
	// 'Robert' is not in the document; broaden it to Bob and Ben.
	th.Add("robert", "Bob", "Ben")
	before := map[string][]bat.OID{}
	for _, n := range th.Expand("Robert") {
		before[n] = slices.Clone(idx.OwnersSubstring(n))
	}
	if got := idx.OwnersSubstringAny(th.Expand("Robert")); !slices.Equal(got, []bat.OID{6, 15}) {
		t.Fatalf("OwnersSubstringAny = %v, want Ben (o6) and Bob (o15)", got)
	}
	for n, want := range before {
		if got := idx.OwnersSubstring(n); !slices.Equal(got, want) {
			t.Errorf("OwnersSubstring(%q) = %v after the union, was %v", n, got, want)
		}
	}
	// One needle is the memo's slice itself.
	if got, want := idx.OwnersSubstringAny([]string{"Ben"}), idx.OwnersSubstring("Ben"); &got[0] != &want[0] {
		t.Error("a single needle did not answer the memoized slice")
	}
	// Owners matched by two needles appear once: "Bob" and "Byte" are
	// one string of o15.
	if got := idx.OwnersSubstringAny([]string{"Bob", "Byte"}); !slices.Equal(got, []bat.OID{15}) {
		t.Errorf("OwnersSubstringAny(Bob, Byte) = %v, want [15]", got)
	}
	if got := idx.OwnersSubstringAny([]string{"absent", "missing"}); got != nil {
		t.Errorf("no-match union = %v", got)
	}
}
