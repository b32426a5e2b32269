package monetx

import (
	"math/rand"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

func fig1Store(t *testing.T) *Store {
	t.Helper()
	s, err := Load(xmltree.Fig1())
	if err != nil {
		t.Fatalf("Load(Fig1) failed: %v", err)
	}
	return s
}

func mustPath(t *testing.T, s *Store, labels ...string) pathsum.PathID {
	t.Helper()
	id, ok := s.Summary().Lookup(labels)
	if !ok {
		t.Fatalf("path %v not in summary", labels)
	}
	return id
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(nil); err == nil {
		t.Error("Load(nil) succeeded")
	}
	if _, err := Load(&xmltree.Document{}); err == nil {
		t.Error("Load(empty) succeeded")
	}
}

func TestLoadFig1Shape(t *testing.T) {
	s := fig1Store(t)
	if s.Len() != 19 {
		t.Errorf("Len = %d, want 19", s.Len())
	}
	if s.Root() != 1 {
		t.Errorf("Root = %d, want 1", s.Root())
	}
	// Figure 2 of the paper lists these relations (among others).
	artPath := mustPath(t, s, "bibliography", "institute", "article")
	edges := s.Edges(artPath)
	if edges == nil || edges.Len() != 2 {
		t.Fatalf("article edge relation = %v", edges)
	}
	// Paper: bibliography/institute/article = {⟨o2,o3⟩, ⟨o2,o13⟩}.
	if edges.Head(0) != 2 || edges.Tail(0) != 3 || edges.Head(1) != 2 || edges.Tail(1) != 13 {
		t.Errorf("article edges = %v, want ⟨2,3⟩⟨2,13⟩", edges)
	}
	// Root path has no edge relation.
	rootPath := mustPath(t, s, "bibliography")
	if s.Edges(rootPath) != nil {
		t.Error("root path should have no edge relation")
	}
	// article@key = {⟨o3,"BB99"⟩, ⟨o13,"BK99"⟩}.
	keyPath, ok := s.Summary().LookupAttr([]string{"bibliography", "institute", "article"}, "key")
	if !ok {
		t.Fatal("article@key path missing")
	}
	keys := s.Strings(keyPath)
	if keys.Len() != 2 || keys.Head(0) != 3 || keys.Tail(0) != "BB99" || keys.Head(1) != 13 || keys.Tail(1) != "BK99" {
		t.Errorf("article@key = %v", keys)
	}
	// year/cdata@string = {⟨o12,"1999"⟩, ⟨o19,"1999"⟩}.
	ycd, ok := s.Summary().LookupAttr([]string{"bibliography", "institute", "article", "year", "cdata"}, StringAttr)
	if !ok {
		t.Fatal("year/cdata@string path missing")
	}
	yb := s.Strings(ycd)
	if yb.Len() != 2 || yb.Head(0) != 12 || yb.Head(1) != 19 || yb.Tail(0) != "1999" {
		t.Errorf("year/cdata@string = %v", yb)
	}
}

func TestPerOIDArrays(t *testing.T) {
	s := fig1Store(t)
	cases := []struct {
		oid    bat.OID
		parent bat.OID
		depth  int
		rank   int
		label  string
	}{
		{1, bat.Nil, 0, 1, "bibliography"},
		{2, 1, 1, 1, "institute"},
		{3, 2, 2, 1, "article"},
		{13, 2, 2, 2, "article"},
		{8, 7, 5, 1, "cdata"},
		{19, 18, 4, 1, "cdata"},
	}
	for _, c := range cases {
		if got := s.Parent(c.oid); got != c.parent {
			t.Errorf("Parent(%d) = %d, want %d", c.oid, got, c.parent)
		}
		if got := s.Depth(c.oid); got != c.depth {
			t.Errorf("Depth(%d) = %d, want %d", c.oid, got, c.depth)
		}
		if got := s.Rank(c.oid); got != c.rank {
			t.Errorf("Rank(%d) = %d, want %d", c.oid, got, c.rank)
		}
		if got := s.Label(c.oid); got != c.label {
			t.Errorf("Label(%d) = %q, want %q", c.oid, got, c.label)
		}
	}
	if got := s.PathString(8); got != "/bibliography/institute/article/author/lastname/cdata" {
		t.Errorf("PathString(8) = %q", got)
	}
}

func TestOIDsAt(t *testing.T) {
	s := fig1Store(t)
	artPath := mustPath(t, s, "bibliography", "institute", "article")
	got := s.OIDsAt(artPath)
	if len(got) != 2 || got[0] != 3 || got[1] != 13 {
		t.Errorf("OIDsAt(article) = %v, want [3 13]", got)
	}
	rootPath := mustPath(t, s, "bibliography")
	if got := s.OIDsAt(rootPath); len(got) != 1 || got[0] != 1 {
		t.Errorf("OIDsAt(root) = %v, want [1]", got)
	}
}

func TestTextAndAttrValue(t *testing.T) {
	s := fig1Store(t)
	if txt, ok := s.Text(8); !ok || txt != "Bit" {
		t.Errorf("Text(8) = (%q,%v), want (Bit,true)", txt, ok)
	}
	if _, ok := s.Text(3); ok {
		t.Error("Text(article) should fail")
	}
	if v, ok := s.AttrValue(3, "key"); !ok || v != "BB99" {
		t.Errorf("AttrValue(3,key) = (%q,%v)", v, ok)
	}
	if _, ok := s.AttrValue(3, "nope"); ok {
		t.Error("AttrValue of absent attribute succeeded")
	}
	if _, ok := s.AttrValue(4, "key"); ok {
		t.Error("AttrValue on attribute-less path succeeded")
	}
}

func TestChildrenDocumentOrder(t *testing.T) {
	s := fig1Store(t)
	// article o3 has author(4), title(9), year(11) in that order —
	// three different child paths, so order must be restored by rank.
	got := s.Children(3)
	want := []bat.OID{4, 9, 11}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Children(3) = %v, want %v", got, want)
	}
	if got := s.Children(8); len(got) != 0 {
		t.Errorf("Children(leaf) = %v, want empty", got)
	}
}

func TestContainsBothWays(t *testing.T) {
	s := fig1Store(t)
	cases := []struct {
		anc, desc bat.OID
		want      bool
	}{
		{1, 19, true},
		{3, 8, true},
		{3, 3, true},
		{3, 13, false},
		{13, 3, false},
		{8, 3, false},
		{2, 12, true},
	}
	for _, c := range cases {
		if got := s.Contains(c.anc, c.desc); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.anc, c.desc, got, c.want)
		}
		if got := s.ContainsViaJoins(c.anc, c.desc); got != c.want {
			t.Errorf("ContainsViaJoins(%d,%d) = %v, want %v", c.anc, c.desc, got, c.want)
		}
	}
}

func TestContainsAgreesOnRandomDocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		doc := xmltree.Random(r, 60)
		s, err := Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		n := bat.OID(s.Len())
		for a := bat.OID(1); a <= n; a++ {
			for b := bat.OID(1); b <= n; b++ {
				if s.Contains(a, b) != s.ContainsViaJoins(a, b) {
					t.Fatalf("doc %d: Contains(%d,%d) disagrees with joins", i, a, b)
				}
			}
		}
	}
}

func TestParentBATAndLiftBAT(t *testing.T) {
	s := fig1Store(t)
	artPath := mustPath(t, s, "bibliography", "institute", "article")
	pb := s.ParentBAT(artPath)
	if pb.Len() != 2 || pb.Head(0) != 3 || pb.Tail(0) != 2 {
		t.Errorf("ParentBAT(article) = %v", pb)
	}
	// Lazy caching: same object on second call.
	if s.ParentBAT(artPath) != pb {
		t.Error("ParentBAT not cached")
	}
	// Lift the two articles (provenance = themselves) one level: the
	// join(O, parent) step of Figure 4.
	a := bat.New[bat.OID]("in")
	a.Append(3, 3)
	a.Append(13, 13)
	lifted := bat.Join(a, pb)
	if lifted.Len() != 2 || lifted.Tail(0) != 2 || lifted.Tail(1) != 2 {
		t.Errorf("join with ParentBAT = %v, want both lifted to institute o2", lifted)
	}
	// The root has no parent: no relation to lift with.
	if got := s.ParentBAT(mustPath(t, s, "bibliography")); got != nil {
		t.Errorf("ParentBAT(root) = %v, want nil", got)
	}
}

// TestReassembleObject: Store.Emit hands a node's associations to its
// sink as one event — label, attributes sorted by name — and its
// children after it; a cdata child is its text.
func TestReassembleObject(t *testing.T) {
	s := fig1Store(t)
	art, err := rebuild(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if art.Root.Label != "article" || art.Root.Kind != xmltree.Element {
		t.Errorf("Emit(3) opens %+v", art.Root)
	}
	if len(art.Root.Attrs) != 1 || art.Root.Attrs[0] != (xmltree.Attr{Name: "key", Value: "BB99"}) {
		t.Errorf("attrs = %v", art.Root.Attrs)
	}
	if len(art.Root.Children) != 3 {
		t.Errorf("children = %v", art.Root.Children)
	}
	author, err := rebuild(s, 14)
	if err != nil {
		t.Fatal(err)
	}
	if cd := author.Root.Children; len(cd) != 1 || cd[0].Kind != xmltree.CData || cd[0].Text != "Bob Byte" {
		t.Errorf("Emit(14) = %s", author.XMLString())
	}
	if _, err := rebuild(s, 0); err == nil {
		t.Error("Emit(0) succeeded")
	}
	if _, err := rebuild(s, 999); err == nil {
		t.Error("Emit(999) succeeded")
	}
}

func TestReassembleDocumentLossless(t *testing.T) {
	doc := xmltree.Fig1()
	s, err := Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rebuild(s, s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(doc, back) {
		t.Errorf("Monet transform not lossless:\noriginal: %s\nrebuilt:  %s",
			doc.XMLString(), back.XMLString())
	}
}

func TestReassembleDocumentLosslessRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		doc := xmltree.Random(r, 80)
		s, err := Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := rebuild(s, s.Root())
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(doc, back) {
			t.Fatalf("doc %d: reassembly differs\noriginal: %s\nrebuilt:  %s",
				i, doc.XMLString(), back.XMLString())
		}
	}
}

func TestStats(t *testing.T) {
	s := fig1Store(t)
	st := s.Stats()
	if st.Nodes != 19 {
		t.Errorf("Stats.Nodes = %d, want 19", st.Nodes)
	}
	if st.Paths != s.Summary().Len() {
		t.Errorf("Stats.Paths = %d, want %d", st.Paths, s.Summary().Len())
	}
	// 18 edges (every node but the root) + 19 ranks + strings:
	// 8 cdata strings... (6 cdata nodes? count: o6,o8,o10,o12,o15,o17,o19 = 7) + 2 keys.
	if st.EdgeRelations == 0 || st.StrRelations == 0 {
		t.Error("Stats missing relations")
	}
	wantAssoc := 18 + 19 + 7 + 2
	if st.Associations != wantAssoc {
		t.Errorf("Stats.Associations = %d, want %d", st.Associations, wantAssoc)
	}
	if st.MemBytes <= 0 {
		t.Error("Stats.MemBytes not positive")
	}
}

func TestValidOID(t *testing.T) {
	s := fig1Store(t)
	if s.ValidOID(bat.Nil) {
		t.Error("Nil should be invalid")
	}
	if !s.ValidOID(1) || !s.ValidOID(19) {
		t.Error("in-range OIDs reported invalid")
	}
	if s.ValidOID(20) {
		t.Error("out-of-range OID reported valid")
	}
}
