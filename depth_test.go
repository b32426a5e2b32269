package ncq

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"ncq/internal/pathsum"
)

// deepDoc nests a two-field record under a single chain so that the
// document has exactly levels levels of nodes: levels-2 <a> elements,
// the fields <b> and <c>, and their text.
func deepDoc(levels int) string {
	return strings.Repeat("<a>", levels-2) + "<b>needle</b><c>thread</c>" + strings.Repeat("</a>", levels-2)
}

// TestDocumentAtMaxDepth: the deepest document the system admits is a
// first-class document — it loads, answers, and survives a snapshot.
func TestDocumentAtMaxDepth(t *testing.T) {
	db, err := OpenString(deepDoc(pathsum.MaxDepth))
	if err != nil {
		t.Fatal(err)
	}
	meets, unmatched, err := locateMeet(db, nil, "needle", "thread")
	if err != nil {
		t.Fatal(err)
	}
	record := NodeID(pathsum.MaxDepth - 2) // the innermost <a>
	if len(meets) != 1 || meets[0].Node != record || meets[0].Distance != 4 || len(unmatched) != 0 {
		t.Fatalf("meets = %+v, unmatched = %v; want the innermost <a> (node %d) at distance 4", meets, unmatched, record)
	}
	if want := strings.Repeat("/a", pathsum.MaxDepth-2); meets[0].Path != want {
		t.Errorf("meet path is %d bytes, want %d of /a", len(meets[0].Path), len(want))
	}

	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := locateMeet(back, nil, "needle", "thread")
	if err != nil || !reflect.DeepEqual(again, meets) {
		t.Errorf("after the snapshot round trip: %+v, err = %v", again, err)
	}
	if back.Stats() != db.Stats() {
		t.Errorf("stats differ: %+v vs %+v", back.Stats(), db.Stats())
	}
}

// TestDeeperThanMaxDepthRejected: one level more is refused at every
// door a document comes in by — the parser, and a snapshot whose path
// table Load could never have written.
func TestDeeperThanMaxDepthRejected(t *testing.T) {
	if _, err := OpenString(deepDoc(pathsum.MaxDepth + 1)); err == nil || !strings.Contains(err.Error(), "nests deeper than 4096 levels") {
		t.Errorf("Open: err = %v, want the depth limit", err)
	}

	// Magic, framing (shard 0 of 1), the one label "a", then one chain
	// of elements at depths 0..MaxDepth+1, never closed. The loader must
	// stop at the last one; nothing after it is needed.
	snap := []byte("NCQSNAP3\x00\x01\x01\x01a")
	for i := 0; i < pathsum.MaxDepth+2; i++ {
		snap = append(snap, 0, 2, 0) // closes nothing, element "a", no attributes
	}
	if _, err := OpenSnapshot(bytes.NewReader(snap)); err == nil || !strings.Contains(err.Error(), "limit is 4096") {
		t.Errorf("OpenSnapshot: err = %v, want the depth limit", err)
	}
}

// TestMaxDepthLoadTime bounds what the worst admitted chain costs to
// load. Every path stores its rendered string, so the chain is
// quadratic in bytes copied (16 MiB here) but nothing else: rendering
// a path by walking and joining its labels on every call, as String
// once did, takes this load from tens of milliseconds past half a
// second.
func TestMaxDepthLoadTime(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("wall-clock pin: not meaningful under -race or -short")
	}
	doc := strings.Repeat("<a>", pathsum.MaxDepth) + strings.Repeat("</a>", pathsum.MaxDepth)
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := OpenString(doc); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	if best > 250*time.Millisecond {
		t.Errorf("loading a %d-level chain took %v (best of 3), pinned at <= 250ms", pathsum.MaxDepth, best)
	}
}
