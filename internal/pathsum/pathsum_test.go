package pathsum

import (
	"reflect"
	"strings"
	"testing"
)

// fixture builds the Fig. 1 path summary:
//
//	/bibliography
//	/bibliography/institute
//	/bibliography/institute/article          (+@key)
//	/bibliography/institute/article/author
//	…/author/firstname, …/firstname/cdata    (+@string)
//	…
func fixture(t *testing.T) (*Summary, map[string]PathID) {
	t.Helper()
	s := New()
	ids := map[string]PathID{}
	bib := s.MustIntern(Invalid, "bibliography", Elem)
	ids["bib"] = bib
	inst := s.MustIntern(bib, "institute", Elem)
	ids["inst"] = inst
	art := s.MustIntern(inst, "article", Elem)
	ids["art"] = art
	ids["art@key"] = s.MustIntern(art, "key", Attr)
	au := s.MustIntern(art, "author", Elem)
	ids["author"] = au
	fn := s.MustIntern(au, "firstname", Elem)
	ids["firstname"] = fn
	fncd := s.MustIntern(fn, "cdata", Elem)
	ids["firstname/cdata"] = fncd
	ids["firstname/cdata@string"] = s.MustIntern(fncd, "string", Attr)
	yr := s.MustIntern(art, "year", Elem)
	ids["year"] = yr
	yrcd := s.MustIntern(yr, "cdata", Elem)
	ids["year/cdata"] = yrcd
	return s, ids
}

func TestInternIdempotent(t *testing.T) {
	s, ids := fixture(t)
	again, err := s.Intern(ids["inst"], "article", Elem)
	if err != nil {
		t.Fatal(err)
	}
	if again != ids["art"] {
		t.Errorf("re-interning returned %d, want %d", again, ids["art"])
	}
	n := s.Len()
	s.MustIntern(ids["inst"], "article", Elem)
	if s.Len() != n {
		t.Error("idempotent intern grew the summary")
	}
}

func TestInternErrors(t *testing.T) {
	s := New()
	if _, err := s.Intern(Invalid, "root", Attr); err == nil {
		t.Error("attribute root accepted")
	}
	if _, err := s.Intern(Invalid, "", Elem); err == nil {
		t.Error("empty label accepted")
	}
	s.MustIntern(Invalid, "a", Elem)
	if _, err := s.Intern(Invalid, "b", Elem); err == nil {
		t.Error("second root accepted")
	}
	if _, err := s.Intern(PathID(99), "x", Elem); err == nil {
		t.Error("unknown parent accepted")
	}
}

func TestAccessors(t *testing.T) {
	s, ids := fixture(t)
	if s.Root() != ids["bib"] {
		t.Errorf("Root = %d", s.Root())
	}
	if s.Parent(ids["art"]) != ids["inst"] {
		t.Error("Parent wrong")
	}
	if s.Parent(s.Root()) != Invalid {
		t.Error("root Parent should be Invalid")
	}
	if s.Label(ids["art"]) != "article" {
		t.Errorf("Label = %q", s.Label(ids["art"]))
	}
	if s.Kind(ids["art@key"]) != Attr || s.Kind(ids["art"]) != Elem {
		t.Error("Kind wrong")
	}
	if s.Depth(s.Root()) != 0 || s.Depth(ids["art"]) != 2 || s.Depth(ids["firstname/cdata@string"]) != 6 {
		t.Error("Depth wrong")
	}
	kids := s.Children(ids["art"])
	if len(kids) != 2 || kids[0] != ids["author"] || kids[1] != ids["year"] {
		t.Errorf("Children(article) = %v", kids)
	}
	attrs := s.AttrPaths(ids["art"])
	if len(attrs) != 1 || attrs[0] != ids["art@key"] {
		t.Errorf("AttrPaths(article) = %v", attrs)
	}
}

func TestStringForms(t *testing.T) {
	s, ids := fixture(t)
	cases := []struct {
		id   PathID
		want string
	}{
		{ids["bib"], "/bibliography"},
		{ids["art"], "/bibliography/institute/article"},
		{ids["art@key"], "/bibliography/institute/article@key"},
		{ids["firstname/cdata"], "/bibliography/institute/article/author/firstname/cdata"},
		{ids["firstname/cdata@string"], "/bibliography/institute/article/author/firstname/cdata@string"},
	}
	for _, c := range cases {
		if got := s.String(c.id); got != c.want {
			t.Errorf("String(%d) = %q, want %q", c.id, got, c.want)
		}
	}
	if got := s.String(Invalid); got != "<invalid path>" {
		t.Errorf("String(Invalid) = %q", got)
	}
}

func TestLabelsAndLookup(t *testing.T) {
	s, ids := fixture(t)
	labels := s.Labels(ids["author"])
	want := []string{"bibliography", "institute", "article", "author"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("Labels = %v, want %v", labels, want)
	}
	id, ok := s.Lookup(want)
	if !ok || id != ids["author"] {
		t.Errorf("Lookup = (%d,%v), want (%d,true)", id, ok, ids["author"])
	}
	if _, ok := s.Lookup([]string{"bibliography", "nope"}); ok {
		t.Error("Lookup of unknown path succeeded")
	}
	if _, ok := s.Lookup([]string{"wrongroot"}); ok {
		t.Error("Lookup with wrong root succeeded")
	}
	if _, ok := s.Lookup(nil); ok {
		t.Error("Lookup of empty sequence succeeded")
	}
	aid, ok := s.LookupAttr([]string{"bibliography", "institute", "article"}, "key")
	if !ok || aid != ids["art@key"] {
		t.Errorf("LookupAttr = (%d,%v)", aid, ok)
	}
	if _, ok := s.LookupAttr([]string{"bibliography"}, "nope"); ok {
		t.Error("LookupAttr of unknown attr succeeded")
	}
}

func TestPrefixOrder(t *testing.T) {
	s, ids := fixture(t)
	if !s.IsPrefix(ids["bib"], ids["firstname/cdata"]) {
		t.Error("root should be prefix of deep path")
	}
	if !s.IsPrefix(ids["art"], ids["art"]) {
		t.Error("IsPrefix should be reflexive")
	}
	if s.IsPrefix(ids["author"], ids["year"]) {
		t.Error("siblings are not prefixes")
	}
	if s.IsPrefix(ids["firstname/cdata"], ids["bib"]) {
		t.Error("descendant is not a prefix of ancestor")
	}
	// Leq argument order per Definition 5: Leq(deep, shallow).
	if !s.Leq(ids["firstname/cdata"], ids["art"]) {
		t.Error("Leq(deep, ancestor) should hold")
	}
	if s.Leq(ids["art"], ids["firstname/cdata"]) {
		t.Error("Leq(ancestor, deep) should not hold")
	}
	if s.IsPrefix(Invalid, ids["art"]) || s.IsPrefix(ids["art"], Invalid) {
		t.Error("Invalid should never be in prefix relation")
	}
}

func TestAllPathsAndElemPaths(t *testing.T) {
	s, _ := fixture(t)
	all := s.AllPaths()
	if len(all) != s.Len() {
		t.Errorf("AllPaths returned %d, want %d", len(all), s.Len())
	}
	elems := s.ElemPaths()
	attrs := 0
	for _, id := range all {
		if s.Kind(id) == Attr {
			attrs++
		}
	}
	if len(elems)+attrs != len(all) {
		t.Error("ElemPaths + attribute paths != AllPaths")
	}
}

func TestEmptySummary(t *testing.T) {
	s := New()
	if s.Root() != Invalid {
		t.Error("empty summary root should be Invalid")
	}
	if s.Len() != 0 {
		t.Error("empty summary Len should be 0")
	}
	if _, ok := s.Lookup([]string{"x"}); ok {
		t.Error("Lookup on empty summary succeeded")
	}
}

// TestStringMatchesLabels pins the stored rendering against the one
// String used to build per call: "/" + the labels joined by "/", the
// last step of an attribute path joined by "@" instead.
func TestStringMatchesLabels(t *testing.T) {
	s, _ := fixture(t)
	for _, id := range s.AllPaths() {
		labels := s.Labels(id)
		want := "/" + strings.Join(labels, "/")
		if s.Kind(id) == Attr {
			last := len(labels) - 1
			want = "/" + strings.Join(labels[:last], "/") + "@" + labels[last]
		}
		if got := s.String(id); got != want {
			t.Errorf("String(%d) = %q, labels render %q", id, got, want)
		}
	}
}

// TestStringAllocatesNothing holds the rendering where Intern put it:
// every rendered meet, hit and catalogue row calls String, so a return
// to building the string per call shows up here first.
func TestStringAllocatesNothing(t *testing.T) {
	s, ids := fixture(t)
	var sink string
	for _, name := range []string{"bib", "art@key", "firstname/cdata@string"} {
		id := ids[name]
		if got := testing.AllocsPerRun(100, func() { sink = s.String(id) }); got != 0 {
			t.Errorf("String(%s) allocates %.0f/op, want 0", name, got)
		}
	}
	_ = sink
}

func TestInternMaxDepth(t *testing.T) {
	s := New()
	cur := s.MustIntern(Invalid, "a", Elem)
	for s.Depth(cur) < MaxDepth-1 {
		cur = s.MustIntern(cur, "a", Elem)
	}
	// The deepest admissible steps: an element and an attribute at
	// exactly MaxDepth.
	deepest, err := s.Intern(cur, "a", Elem)
	if err != nil || s.Depth(deepest) != MaxDepth {
		t.Fatalf("element at MaxDepth: depth %d, err %v", s.Depth(deepest), err)
	}
	if _, err := s.Intern(cur, "k", Attr); err != nil {
		t.Fatalf("attribute at MaxDepth: %v", err)
	}
	if got, want := len(s.String(deepest)), 2*(MaxDepth+1); got != want {
		t.Errorf("deepest path renders %d bytes, want %d", got, want)
	}
	// One step further is refused, whatever its kind, and leaves the
	// summary as it was.
	n := s.Len()
	for _, kind := range []Kind{Elem, Attr} {
		if _, err := s.Intern(deepest, "x", kind); err == nil || !strings.Contains(err.Error(), "limit is 4096") {
			t.Errorf("kind %d below MaxDepth: err = %v, want the depth limit", kind, err)
		}
	}
	if s.Len() != n {
		t.Errorf("a refused step grew the summary from %d to %d paths", n, s.Len())
	}
}
