//go:build !race

package wire_test

// Built out under -race: the detector's instrumentation changes
// allocation counts.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/datagen"
	"ncq/internal/server"
	"ncq/internal/wire"
)

var allocMeet = ncq.CorpusMeet{Source: "bib", Shard: 2, Meet: ncq.Meet{
	Node: 4, Tag: "book", Path: "/bib/book", Witnesses: []ncq.NodeID{5, 9}, Distance: 2}}

var allocAnswer = wire.Answer{CorpusMeet: allocMeet}

// discard is a ResponseWriter with no client behind it.
type discard struct{ header http.Header }

func (d discard) Header() http.Header       { return d.header }
func (discard) WriteHeader(int)             {}
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Flush()                      {}

// TestStreamWriterMeetAllocs pins the encode side: past the head, a
// meet line is appended to the stream's one budget-sized buffer and
// costs no allocation — no marshalled copy, no per-line write.
func TestStreamWriterMeetAllocs(t *testing.T) {
	sw := wire.NewStreamWriter(discard{http.Header{}}, httptest.NewRequest("POST", "/v2/query?stream=1", nil), nil, nil, nil)
	defer sw.Close()
	for i := 0; i < 400; i++ { // past the head, the buffer and the timer
		sw.Meet(&allocAnswer)
	}
	if got := testing.AllocsPerRun(2000, func() { sw.Meet(&allocAnswer) }); got > 0.1 {
		t.Errorf("a steady-state meet line allocates %.2f/op, pinned at 0", got)
	}
}

// TestLineScannerMeetAllocs pins the decode side: a canonical meet
// line costs its three strings and its witness slice — the meet itself
// lands in the scanner's reused Line — and nothing for the decoding.
func TestLineScannerMeetAllocs(t *testing.T) {
	const runs = 2000
	sc := wire.NewLineScanner(strings.NewReader(strings.Repeat(string(wire.AppendMeetLine(nil, &allocMeet)), runs+1)))
	got := testing.AllocsPerRun(runs, func() {
		if ln, err := sc.Next(); err != nil || ln.Meet == nil {
			t.Fatalf("%+v, %v", ln, err)
		}
	})
	if got > 4 {
		t.Errorf("a canonical meet line decodes in %.1f allocs/op, pinned at <= 4", got)
	}
}

// TestStreamLifecycleReusesTailBuffer pins the tail buffer's pool: a
// stream opened after another closed — 400 meets, then Close — takes
// the buffer that one gave back instead of allocating its 17 KiB.
func TestStreamLifecycleReusesTailBuffer(t *testing.T) {
	w, r := discard{http.Header{}}, httptest.NewRequest("POST", "/v2/query?stream=1", nil)
	lifecycle := func() {
		sw := wire.NewStreamWriter(w, r, nil, nil, nil)
		for i := 0; i < 400; i++ {
			sw.Meet(&allocAnswer)
		}
		sw.Close()
	}
	lifecycle()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lifecycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		// A tail buffer each would be 17 KiB; the writer, its timer and
		// its head line take well under 1 KiB.
		t.Errorf("a stream lifecycle allocates %d bytes: a tail buffer (16 KiB + 1 KiB) each", per)
	}
}

// TestRelayScanAllocs pins the relay side: a canonical meet line from a
// member the scanner has seen costs nothing — its rank key is read in
// place and its source interned.
func TestRelayScanAllocs(t *testing.T) {
	const runs = 2000
	sc := wire.NewLineScanner(strings.NewReader(strings.Repeat(string(wire.AppendMeetLine(nil, &allocMeet)), runs+1)))
	defer sc.Close()
	got := testing.AllocsPerRun(runs, func() {
		if ln, raw, err := sc.Relay(); err != nil || raw == nil || ln.Meet.Source != allocMeet.Source {
			t.Fatalf("%+v, %q, %v", ln, raw, err)
		}
	})
	if got != 0 {
		t.Errorf("a relayed canonical line scans in %.1f allocs/op, pinned at 0", got)
	}
}

// TestNodeStreamIsCanonical runs the fast path over what a real node
// streams: every meet line of the answer is one it takes, so the
// general decoder sees a stream's trailer (and, asked for, its header)
// and nothing else.
func TestNodeStreamIsCanonical(t *testing.T) {
	var doc bytes.Buffer
	if err := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 10}).WriteXML(&doc, false); err != nil {
		t.Fatal(err)
	}
	node := server.New(nil).Handler()
	for _, target := range []string{"/v1/docs/plain", "/v1/docs/split?shards=3"} {
		rec := httptest.NewRecorder()
		node.ServeHTTP(rec, httptest.NewRequest("PUT", target, bytes.NewReader(doc.Bytes())))
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", target, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/query?stream=1",
		strings.NewReader(`{"terms":["1999","html"],"exclude_root":true}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	var general []string
	for _, line := range lines {
		if !wire.DecodeCanonicalMeet([]byte(line)) {
			general = append(general, line)
		}
	}
	if len(lines) < 100 || len(general) != 1 || !strings.HasPrefix(general[0], `{"trailer":true`) {
		t.Errorf("of %d lines, %d fell through to the general decoder: %q", len(lines), len(general), general)
	}
	sc := wire.NewLineScanner(strings.NewReader(rec.Body.String()))
	for n := 0; ; n++ {
		if _, err := sc.Next(); err == io.EOF {
			if n != len(lines) {
				t.Errorf("scanned %d of %d lines", n, len(lines))
			}
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
}
