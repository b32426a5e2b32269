package ncq

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// fromDocument loads a tree fixture: its walk into the store loader.
func fromDocument(doc *xmltree.Document) (*Database, error) {
	store, err := monetx.Load(doc)
	if err != nil {
		return nil, err
	}
	return newDatabase(fulltext.New(store)), nil
}

func fig1DB(t *testing.T) *Database {
	t.Helper()
	db, err := fromDocument(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// locateMeet is the paper's interaction in document order: Locate each
// term, then MeetOf the located sets.
func locateMeet(db *Database, opt *Options, terms ...string) ([]Meet, []NodeID, error) {
	ctx := context.Background()
	sets, err := db.Locate(ctx, nil, terms...)
	if err != nil {
		return nil, nil, err
	}
	return db.MeetOf(ctx, opt, sets...)
}

func TestOpenString(t *testing.T) {
	db, err := OpenString(`<bib><book><author>Bit</author><year>1999</year></book></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 6 {
		t.Errorf("Len = %d, want 6", db.Len())
	}
	if db.Tag(db.Root()) != "bib" {
		t.Errorf("root tag = %q", db.Tag(db.Root()))
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := OpenString("not xml <"); err == nil {
		t.Error("bad XML accepted")
	}
	if _, err := fromDocument(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	db, err := OpenString(`<bib><book><author>Bit</author><year>1999</year></book>` +
		`<book><author>Other</author><year>1998</year></book></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	meets, unmatched, err := locateMeet(db, nil, "Bit", "1999")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 1 || meets[0].Tag != "book" {
		t.Fatalf("meets = %+v, want the first book", meets)
	}
	if len(unmatched) != 0 {
		t.Errorf("unmatched = %v", unmatched)
	}
}

func TestMeetOfTermsPaperExample(t *testing.T) {
	db := fig1DB(t)
	meets, unmatched, err := locateMeet(db, nil, "Bit", "1999")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 1 {
		t.Fatalf("meets = %+v", meets)
	}
	m := meets[0]
	if m.Node != 3 || m.Tag != "article" || m.Distance != 5 {
		t.Errorf("meet = %+v, want article o3 at distance 5", m)
	}
	if !reflect.DeepEqual(m.Witnesses, []NodeID{8, 12}) {
		t.Errorf("witnesses = %v", m.Witnesses)
	}
	if !reflect.DeepEqual(unmatched, []NodeID{19}) {
		t.Errorf("unmatched = %v", unmatched)
	}
	if m.Path != "/bibliography/institute/article" {
		t.Errorf("path = %q", m.Path)
	}
}

func TestMeetOfTermsSameAssociation(t *testing.T) {
	db := fig1DB(t)
	// "Bob" and "Byte" hit the same association: the nearest concept is
	// the cdata node itself, whose parent is an author (Section 3.1).
	meets, _, err := locateMeet(db, nil, "Bob", "Byte")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 1 || meets[0].Node != 15 || meets[0].Distance != 0 {
		t.Fatalf("meets = %+v, want the cdata node o15 at distance 0", meets)
	}
	if db.Tag(db.Parent(meets[0].Node)) != "author" {
		t.Error("the hierarchical information should exhibit the author parent")
	}
}

// TestSearchWrappers pins what the search door reports: Locate's
// owners, read back through Value and Path, under `contains` semantics.
func TestSearchWrappers(t *testing.T) {
	db := fig1DB(t)
	sets, err := db.Locate(context.Background(), nil, "Ben", "Hack", "hack")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets[0]) != 1 || sets[0][0] != 6 || db.Value(6) != "Ben" {
		t.Errorf("Locate(Ben) = %v, value %q", sets[0], db.Value(6))
	}
	if !strings.HasSuffix(db.Path(6), "/firstname/cdata") {
		t.Errorf("node path = %q", db.Path(6))
	}
	if len(sets[1]) != 2 || len(sets[2]) != 0 {
		t.Errorf("Locate(Hack, hack) = %v, want 2 nodes then none: case-sensitive", sets[1:])
	}
}

func TestMeet2AndDist(t *testing.T) {
	db := fig1DB(t)
	m, err := db.Meet2(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Node != 4 || m.Tag != "author" || m.Distance != 4 {
		t.Errorf("Meet2 = %+v", m)
	}
	d, err := db.Dist(12, 19)
	if err != nil || d != 6 {
		t.Errorf("Dist = (%d,%v)", d, err)
	}
	if _, err := db.Meet2(0, 3); err == nil {
		t.Error("invalid NodeID accepted")
	}
	if _, err := db.Dist(0, 3); err == nil {
		t.Error("Dist with invalid NodeID accepted")
	}
}

func TestMeetOfWithOptions(t *testing.T) {
	db := fig1DB(t)
	// Exclude the article: plain exclusion consumes the match.
	meets, _, err := db.MeetOf(context.Background(), ExcludePattern("//article"), []NodeID{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 0 {
		t.Errorf("meets = %+v", meets)
	}
	// Nearest() climbs to the institute instead.
	meets, _, err = db.MeetOf(context.Background(), ExcludePattern("//article").Nearest(), []NodeID{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 1 || meets[0].Tag != "institute" {
		t.Errorf("meets = %+v, want institute", meets)
	}
	// Within bound.
	meets, _, err = db.MeetOf(context.Background(), Within(4), []NodeID{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 0 {
		t.Errorf("Within(4) = %+v", meets)
	}
	// MaxLift via fluent chain.
	meets, _, err = db.MeetOf(context.Background(), ExcludeRoot().MaxLift(3), []NodeID{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 1 || meets[0].Tag != "article" {
		t.Errorf("MaxLift(3) = %+v", meets)
	}
	// Bad exclude pattern surfaces as an error.
	if _, _, err := db.MeetOf(context.Background(), ExcludePattern("not-absolute"), []NodeID{8, 12}); err == nil {
		t.Error("bad exclude pattern accepted")
	}
	if _, _, err := db.MeetOf(context.Background(), nil, []NodeID{0}); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestRestrictImplementsKeywordSearch(t *testing.T) {
	db := fig1DB(t)
	// "Ben" and "Bit" meet at the author node; restricting the result
	// type to articles climbs to the enclosing article instead —
	// keyword search over articles (Section 6's claim).
	meets, _, err := locateMeet(db, Restrict("//article"), "Ben", "Bit")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 1 || meets[0].Tag != "article" || meets[0].Node != 3 {
		t.Fatalf("meets = %+v, want article o3", meets)
	}
	// Terms whose meet lies above every article go unmatched.
	meets, unmatched, err := locateMeet(db, Restrict("//article"), "How", "RSI")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 0 {
		t.Errorf("meets = %+v, want none (titles live in different articles)", meets)
	}
	if len(unmatched) != 2 {
		t.Errorf("unmatched = %v, want both title hits", unmatched)
	}
	// Bad restrict pattern surfaces.
	if _, _, err := locateMeet(db, Restrict("bad"), "Ben"); err == nil {
		t.Error("bad restrict pattern accepted")
	}
}

func TestExcludeRootOnTerms(t *testing.T) {
	db := fig1DB(t)
	// "1999" alone meets at the institute; excluding the root changes
	// nothing here, but the call path is exercised end to end.
	meets, _, err := locateMeet(db, ExcludeRoot(), "1999")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 1 || meets[0].Tag != "institute" {
		t.Errorf("meets = %+v", meets)
	}
}

func TestQueryFacade(t *testing.T) {
	db := fig1DB(t)
	ans, err := db.Query(`SELECT meet(e1, e2) FROM //cdata AS e1, //cdata AS e2
		WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.Tags(); !reflect.DeepEqual(got, []string{"article"}) {
		t.Errorf("tags = %v", got)
	}
	if _, err := db.Query("garbage"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestNavigationAndValues(t *testing.T) {
	db := fig1DB(t)
	if db.Parent(2) != 1 || db.Parent(1) != 0 {
		t.Error("Parent wrong")
	}
	kids := db.Children(3)
	if len(kids) != 3 {
		t.Errorf("Children(3) = %v", kids)
	}
	if v := db.Value(11); v != "1999" {
		t.Errorf("Value(year) = %q", v)
	}
	if v := db.Value(12); v != "1999" {
		t.Errorf("Value(cdata) = %q", v)
	}
	if v, ok := db.Attr(3, "key"); !ok || v != "BB99" {
		t.Errorf("Attr = (%q,%v)", v, ok)
	}
	if p := db.Path(8); p != "/bibliography/institute/article/author/lastname/cdata" {
		t.Errorf("Path = %q", p)
	}
}

func TestSubtree(t *testing.T) {
	db := fig1DB(t)
	xml, err := db.Subtree(11) // the first <year>
	if err != nil {
		t.Fatal(err)
	}
	if xml != "<year>1999</year>" {
		t.Errorf("Subtree = %q", xml)
	}
	if _, err := db.Subtree(12); err == nil {
		t.Error("Subtree of a cdata node accepted")
	}
	if _, err := db.Subtree(0); err == nil {
		t.Error("Subtree of invalid node accepted")
	}
}

func TestNavigationOrderFacade(t *testing.T) {
	db := fig1DB(t)
	if !db.Before(3, 13) || db.Before(13, 3) {
		t.Error("Before wrong")
	}
	if db.NextSibling(3) != 13 || db.PrevSibling(13) != 3 {
		t.Error("sibling navigation wrong")
	}
	if db.NextSibling(1) != 0 {
		t.Error("root sibling should be 0")
	}
}

func TestStatsFacade(t *testing.T) {
	db := fig1DB(t)
	st := db.Stats()
	if st.Nodes != 19 || st.Paths == 0 || st.Associations == 0 || st.MemBytes <= 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	db := fig1DB(t)
	var sb strings.Builder
	if err := db.WriteXML(&sb, false); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Errorf("round trip changed node count: %d vs %d", db2.Len(), db.Len())
	}
}
