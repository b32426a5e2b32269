package ncq

import (
	"context"
	"testing"
	"unsafe"

	"ncq/internal/xmltree"
)

// TestValuesOutliveNoStore names every place a stored value leaves a
// member for a caller that may keep it past the member: Database.Value
// and Attr, a meet's projected value and XML, a query answer's rows.
// A store's values are substrings of one string, which one kept
// substring would keep whole, so each of these must be a string of its
// own.
func TestValuesOutliveNoStore(t *testing.T) {
	db, err := OpenString(xmltree.Fig1().XMLString())
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, values := db.store.Table()
	var lo, hi uintptr // the bytes of the store's values
	for _, v := range values {
		if v == "" {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
		if lo == 0 || p < lo {
			lo = p
		}
		hi = max(hi, p+uintptr(len(v)))
	}
	shared := func(place, v string) {
		t.Helper()
		if v == "" {
			t.Fatalf("%s: empty", place)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); p >= lo && p < hi {
			t.Errorf("%s %q shares the store's values", place, v)
		}
	}

	var text, article NodeID
	for n := db.Root(); n <= NodeID(db.Len()); n++ {
		if _, ok := db.store.Text(n); ok && text == 0 {
			text = n
		}
		if _, ok := db.store.AttrValue(n, "key"); ok && article == 0 {
			article = n
		}
	}
	shared("Database.Value of a text", db.Value(text))
	key, _ := db.Attr(article, "key")
	shared("Database.Attr", key)

	res, err := db.Run(context.Background(), Request{Query: `SELECT value(e), xml(e) FROM //cdata AS e`})
	if err != nil || len(res.Meets) == 0 {
		t.Fatalf("projection: %d meets, err %v", len(res.Meets), err)
	}
	for _, m := range res.Meets {
		shared("a meet's projected value", m.Projected.Value)
		shared("a meet's projected XML", m.Projected.XML)
	}

	ans, err := db.Query(`SELECT value(e), xml(e) FROM //cdata AS e`)
	if err != nil || len(ans.Rows) == 0 {
		t.Fatalf("query: %d rows, err %v", len(ans.Rows), err)
	}
	for _, r := range ans.Rows {
		shared("a query answer's value", r.Value)
		shared("a query answer's XML", r.XML)
	}
}
