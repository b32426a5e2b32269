package idref

import (
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// refDoc builds a bibliography with cross-references:
//
//	o1 biblio
//	o2   article[id=a1]          o5 article[id=a2, idref=a1]
//	o3     title o4 cdata        o6   title o7 cdata
//	o8   citations[idref="a1 a2"]
func refDoc(t *testing.T) (*monetx.Store, *Graph) {
	t.Helper()
	doc := xmltree.MustDocument("biblio", func(b *xmltree.Builder) {
		a1 := b.Element(b.Root(), "article", xmltree.Attr{Name: "id", Value: "a1"})
		t1 := b.Element(a1, "title")
		b.Text(t1, "First")
		a2 := b.Element(b.Root(), "article",
			xmltree.Attr{Name: "id", Value: "a2"}, xmltree.Attr{Name: "idref", Value: "a1"})
		t2 := b.Element(a2, "title")
		b.Text(t2, "Second")
		b.Element(b.Root(), "citations", xmltree.Attr{Name: "idref", Value: "a1 a2"})
	})
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(store, "id", "idref")
	if err != nil {
		t.Fatal(err)
	}
	return store, g
}

func TestNewCollectsEdges(t *testing.T) {
	_, g := refDoc(t)
	if g.Refs() != 3 {
		t.Errorf("Refs = %d, want 3 (a2->a1, citations->a1, citations->a2)", g.Refs())
	}
	if o, ok := g.Lookup("a1"); !ok || o != 2 {
		t.Errorf("Lookup(a1) = (%d,%v), want (2,true)", o, ok)
	}
	if _, ok := g.Lookup("nope"); ok {
		t.Error("Lookup of unknown ID succeeded")
	}
}

func TestNewErrors(t *testing.T) {
	dup := xmltree.MustDocument("r", func(b *xmltree.Builder) {
		b.Element(b.Root(), "a", xmltree.Attr{Name: "id", Value: "x"})
		b.Element(b.Root(), "b", xmltree.Attr{Name: "id", Value: "x"})
	})
	store, err := monetx.Load(dup)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(store, "id", "idref"); err == nil {
		t.Error("duplicate ID accepted")
	}
	dangling := xmltree.MustDocument("r", func(b *xmltree.Builder) {
		b.Element(b.Root(), "a", xmltree.Attr{Name: "idref", Value: "ghost"})
	})
	store2, err := monetx.Load(dangling)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(store2, "id", "idref"); err == nil {
		t.Error("dangling reference accepted")
	}
}

func TestMeetUsesReferenceShortcut(t *testing.T) {
	store, g := refDoc(t)
	// Tree-only: the two title cdata nodes (o4 under a1, o7 under a2)
	// are 6 edges apart via the root.
	_, treeDist, err := g.TreeOnlyMeet(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if treeDist != 6 {
		t.Fatalf("tree distance = %d, want 6", treeDist)
	}
	// With the a2->a1 reference the articles are adjacent: o4-o3-o2,
	// o2-o5 (ref), o5-o6-o7: distance 5.
	m, dist, err := g.Meet(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dist != 5 {
		t.Errorf("graph distance = %d, want 5 (reference shortcut)", dist)
	}
	if m == bat.Nil {
		t.Error("no meeting node")
	}
	if !(m == 2 || m == 5) { // a midpoint lies on one of the articles
		t.Errorf("meet = o%d, want one of the articles (o2/o5)", m)
	}
	_ = store
}

func TestMeetIdenticalNodes(t *testing.T) {
	_, g := refDoc(t)
	m, d, err := g.Meet(4, 4)
	if err != nil || m != 4 || d != 0 {
		t.Errorf("Meet(o4,o4) = (%d,%d,%v), want (4,0,nil)", m, d, err)
	}
}

func TestMeetErrors(t *testing.T) {
	_, g := refDoc(t)
	if _, _, err := g.Meet(0, 4); err == nil {
		t.Error("invalid OID accepted")
	}
	if _, _, err := g.TreeOnlyMeet(4, 99); err == nil {
		t.Error("TreeOnlyMeet invalid OID accepted")
	}
	if _, err := g.Dist(1, 99); err == nil {
		t.Error("Dist invalid OID accepted")
	}
}

func TestCyclicReferencesTerminate(t *testing.T) {
	doc := xmltree.MustDocument("r", func(b *xmltree.Builder) {
		b.Element(b.Root(), "a",
			xmltree.Attr{Name: "id", Value: "x"}, xmltree.Attr{Name: "idref", Value: "y"})
		b.Element(b.Root(), "b",
			xmltree.Attr{Name: "id", Value: "y"}, xmltree.Attr{Name: "idref", Value: "x"})
	})
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(store, "id", "idref")
	if err != nil {
		t.Fatal(err)
	}
	// a (o2) and b (o3) are mutually referencing: distance 1 despite
	// the cycle; the BFS must terminate.
	m, d, err := g.Meet(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("distance = %d, want 1", d)
	}
	if m != 2 && m != 3 {
		t.Errorf("meet = %d", m)
	}
	// Distance agreement with Dist.
	if dd, err := g.Dist(2, 3); err != nil || dd != 1 {
		t.Errorf("Dist = (%d,%v)", dd, err)
	}
}

func TestGraphDistNeverExceedsTreeDist(t *testing.T) {
	store, g := refDoc(t)
	n := store.Len()
	for a := 1; a <= n; a++ {
		for b := 1; b <= n; b++ {
			_, td, err := g.TreeOnlyMeet(bat.OID(a), bat.OID(b))
			if err != nil {
				t.Fatal(err)
			}
			gd, err := g.Dist(bat.OID(a), bat.OID(b))
			if err != nil {
				t.Fatal(err)
			}
			if gd > td {
				t.Errorf("graph dist(%d,%d) = %d exceeds tree dist %d", a, b, gd, td)
			}
		}
	}
}

// TestGraphOfParsedDocument builds the graph of a parsed document: one
// reference, its ID resolved to the declaring element, the two title
// texts 5 apart on the graph and 6 in the tree, an invalid OID refused,
// and a reference attribute the document never writes giving a graph
// with no reference edges rather than an error.
func TestGraphOfParsedDocument(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a id="x"><t>one</t></a><b idref="x"><t>two</t></b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(store, "id", "idref")
	if err != nil {
		t.Fatal(err)
	}
	if g.Refs() != 1 {
		t.Errorf("Refs = %d, want 1", g.Refs())
	}
	if o, ok := g.Lookup("x"); !ok || store.Label(o) != "a" {
		t.Errorf("Lookup(x) = (%d,%v), want the a element", o, ok)
	}
	// The cdata under a (o4) and under b (o7).
	if _, d, err := g.TreeOnlyMeet(4, 7); err != nil || d != 6 {
		t.Errorf("tree distance = %d (%v), want 6", d, err)
	}
	if d, err := g.Dist(4, 7); err != nil || d != 5 {
		t.Errorf("graph distance = %d (%v), want 5", d, err)
	}
	if _, _, err := g.Meet(0, 4); err == nil {
		t.Error("invalid node accepted")
	}
	if empty, err := New(store, "id", "nosuchref"); err != nil || empty.Refs() != 0 {
		t.Errorf("an absent ref attribute gives err %v; want a graph with no references", err)
	}
}
