package ncq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ncq/internal/datagen"
)

// openDBLP generates and loads a small synthetic bibliography through
// the full public pipeline (generate → serialise → parse → shred).
func openDBLP(t *testing.T, pubs int) *Database {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.PubsPerVenueYear = pubs
	var xml strings.Builder
	if err := datagen.DBLP(cfg).WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	db, err := OpenString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestIntegrationCaseStudy runs the paper's DBLP case study end to end
// through the public API only: load XML, query in the SQL variant,
// cross-check with Locate + MeetOf, verify the answers against ground
// truth extracted through navigation.
func TestIntegrationCaseStudy(t *testing.T) {
	db := openDBLP(t, 3)

	// The ICDE-1999 publications via the query language.
	ans, err := db.Query(`
		SELECT meet(e1, e2; EXCLUDE /dblp)
		FROM //booktitle/cdata AS e1, //year/cdata AS e2
		WHERE e1 CONTAINS 'ICDE' AND e2 CONTAINS '1999'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 ICDE-1999 records\n%s", len(ans.Rows), ans.XML())
	}
	for _, r := range ans.Rows {
		if r.Tag != "inproceedings" {
			t.Errorf("row tag = %q", r.Tag)
		}
		// Ground truth through navigation.
		var venue, year string
		for _, c := range db.Children(r.OID) {
			switch db.Tag(c) {
			case "booktitle":
				venue = db.Value(c)
			case "year":
				year = db.Value(c)
			}
		}
		if venue != "ICDE" || year != "1999" {
			t.Errorf("record %d is %s %s, want ICDE 1999", r.OID, venue, year)
		}
	}

	// The API path gives the same set.
	meets, _, err := locateMeet(db, ExcludeRoot(), "ICDE", "1999")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != len(ans.Rows) {
		t.Errorf("MeetOf found %d, query found %d", len(meets), len(ans.Rows))
	}
	for i, m := range meets {
		if m.Node != ans.Rows[i].OID {
			t.Errorf("result %d differs: %d vs %d", i, m.Node, ans.Rows[i].OID)
		}
	}

	// Each result explains itself in terms of its witnesses.
	text, err := db.Explain(meets[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "booktitle/cdata") || !strings.Contains(text, "year/cdata") {
		t.Errorf("Explain = %s", text)
	}
}

// TestIntegrationNoICDE1985 checks the 1985 gap through the public API.
func TestIntegrationNoICDE1985(t *testing.T) {
	db := openDBLP(t, 2)
	meets, _, err := locateMeet(db, ExcludeRoot(), "ICDE", "1985")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 0 {
		t.Errorf("ICDE 1985 returned %d results, want 0 (no ICDE in 1985)", len(meets))
	}
	meets, _, err = locateMeet(db, ExcludeRoot(), "VLDB", "1985")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 2 {
		t.Errorf("VLDB 1985 returned %d results, want 2", len(meets))
	}
}

// TestIntegrationSnapshotEquivalence snapshots the loaded bibliography
// and checks the reloaded database answers the case study identically.
func TestIntegrationSnapshotEquivalence(t *testing.T) {
	db := openDBLP(t, 2)
	var buf strings.Builder
	bw := &builderWriter{&buf}
	if err := db.SaveSnapshot(bw); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(context.Background(), strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, year := range []string{"1999", "1990", "1984"} {
		a, _, err := locateMeet(db, ExcludeRoot(), "ICDE", year)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := locateMeet(back, ExcludeRoot(), "ICDE", year)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("year %s: %d vs %d results after snapshot", year, len(a), len(b))
		}
		for i := range a {
			if a[i].Node != b[i].Node || a[i].Distance != b[i].Distance {
				t.Fatalf("year %s result %d differs", year, i)
			}
		}
	}
}

// builderWriter adapts strings.Builder to io.Writer (Builder already
// implements it; the wrapper just documents intent at the call site).
type builderWriter struct{ b *strings.Builder }

func (w *builderWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

// TestIntegrationPathsAndTransform exercises the catalogue inspection
// on a generated document.
func TestIntegrationPathsAndTransform(t *testing.T) {
	db := openDBLP(t, 2)
	infos := db.Paths()
	var recCount int
	for _, pi := range infos {
		if pi.Path == "/dblp/inproceedings" {
			recCount = pi.Count
		}
	}
	wantRecords := 5*16*2 - 2 // venues × years × pubs, minus ICDE 1985
	if recCount != wantRecords {
		t.Errorf("record count = %d, want %d", recCount, wantRecords)
	}
	var sb strings.Builder
	if err := db.DumpTransform(&sb, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "/dblp/inproceedings@key = {") {
		t.Errorf("transform dump missing key relation:\n%s", firstLines(sb.String(), 5))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestIntegrationRankedCLIStyleFlow mirrors what cmd/ncq does: search,
// meet, rank, show, on a generated document.
func TestIntegrationRankedCLIStyleFlow(t *testing.T) {
	db := openDBLP(t, 2)
	sets, err := db.Locate(context.Background(), nil, "Schmidt")
	if err != nil || len(sets[0]) == 0 {
		t.Fatal("no Schmidt in the generated data")
	}
	meets, _, err := locateMeet(db, ExcludeRoot(), "Schmidt", "VLDB")
	if err != nil {
		t.Fatal(err)
	}
	rankByDistance(meets)
	for i := 1; i < len(meets); i++ {
		if meets[i].Distance < meets[i-1].Distance {
			t.Fatal("ranking broken")
		}
	}
	if len(meets) > 0 {
		if _, err := db.Subtree(meets[0].Node); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIntegrationStatsPlausible sanity-checks storage accounting on a
// larger generated document.
func TestIntegrationStatsPlausible(t *testing.T) {
	db := openDBLP(t, 4)
	st := db.Stats()
	if st.Nodes < 1000 {
		t.Errorf("suspiciously small: %+v", st)
	}
	if st.Associations <= st.Nodes {
		t.Errorf("associations (%d) should exceed nodes (%d): edges + ranks + strings", st.Associations, st.Nodes)
	}
	if st.MemBytes == 0 || st.Paths == 0 {
		t.Errorf("zero fields: %+v", st)
	}
	_ = fmt.Sprintf("%+v", st) // Stats must be printable
}
