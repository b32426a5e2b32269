//go:build !race

package wire_test

// Built out under -race: the detector's instrumentation changes
// allocation counts.

import (
	"bytes"
	"fmt"
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

var allocLine = wire.AppendMeetLine(nil, &allocMeet)

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
		sw.Meet(allocLine)
	}
	if got := testing.AllocsPerRun(2000, func() { sw.Meet(allocLine) }); got > 0.1 {
		t.Errorf("a steady-state meet line allocates %.2f/op, pinned at 0", got)
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
			sw.Meet(allocLine)
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

// TestNodeStreamIsCanonical runs the relay's strict reader over what a
// real node streams: every meet line of the answer is one it keys, so a
// coordinator decodes a stream's trailer (and, asked for, its header)
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
		if !wire.RelaysCanonical([]byte(line)) {
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

// lineCounter is a ResponseWriter with no client behind it that counts
// the lines written to it.
type lineCounter struct {
	discard
	lines *int
}

func (c lineCounter) Write(p []byte) (int, error) {
	*c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// TestStreamAllocsFlatInLines pins what a node's stream allocates to
// the request, not to its answer: every line is built from the
// members' columns and memoized bytes into reused buffers, so streaming
// ten times the lines allocates at most a few objects more.
func TestStreamAllocsFlatInLines(t *testing.T) {
	c := ncq.NewCorpus()
	for i := range 8 {
		db, err := ncq.OpenString(datagen.DBLP(datagen.DBLPConfig{Seed: int64(i + 1), YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 10}).XMLString())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put(fmt.Sprintf("m%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	node := server.New(c).Handler()
	stream := func(limit int) (allocs float64, lines int) {
		body := fmt.Sprintf(`{"terms":["199","html"],"exclude_root":true,"limit":%d}`, limit)
		w := lineCounter{discard{http.Header{}}, &lines}
		run := func() {
			lines = 0
			node.ServeHTTP(w, httptest.NewRequest("POST", "/v2/query?stream=1", strings.NewReader(body)))
		}
		run() // warm the pools
		return testing.AllocsPerRun(20, run), lines
	}
	few, fewLines := stream(200)
	many, manyLines := stream(2000)
	if fewLines != 201 || manyLines != 2001 {
		t.Fatalf("streamed %d and %d lines, want 201 and 2001", fewLines, manyLines)
	}
	if many > few+10 {
		t.Errorf("%d lines allocate %.0f, %d lines %.0f: pinned at no more than 10 apart", manyLines, many, fewLines, few)
	}
}

// TestPageAllocsFlatInMeets is the same pin for a page: its result is
// the stream's lines appended into one pooled buffer and copied out
// once, its envelope written around those bytes, so a page of ten
// times the meets allocates at most a few objects more.
func TestPageAllocsFlatInMeets(t *testing.T) {
	c := ncq.NewCorpus()
	for i := range 8 {
		db, err := ncq.OpenString(datagen.DBLP(datagen.DBLPConfig{Seed: int64(i + 1), YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 10}).XMLString())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put(fmt.Sprintf("m%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	node := server.New(c, server.WithCacheBytes(0)).Handler()
	page := func(limit int) float64 {
		body := fmt.Sprintf(`{"terms":["199","html"],"exclude_root":true,"limit":%d}`, limit)
		var lines int
		w := lineCounter{discard{http.Header{}}, &lines}
		run := func() {
			node.ServeHTTP(w, httptest.NewRequest("POST", "/v2/query", strings.NewReader(body)))
		}
		run() // warm the pools
		return testing.AllocsPerRun(20, run)
	}
	few, many := page(200), page(2000)
	if many > few+10 {
		t.Errorf("a page of 2000 meets allocates %.0f, one of 200 %.0f: pinned at no more than 10 apart", many, few)
	}
}

// TestEncodeResultAllocs: however many meets a page has, its result
// costs one allocation, the exact-size copy the cache keeps.
func TestEncodeResultAllocs(t *testing.T) {
	req, stats := &ncq.Request{Terms: []string{"x"}}, &ncq.StreamStats{Truncated: true}
	for _, n := range []int{1, 100} {
		lines := func(yield func([]byte, error) bool) {
			for range n {
				if !yield(allocLine, nil) {
					return
				}
			}
		}
		if got := testing.AllocsPerRun(50, func() { wire.EncodeResult(req, lines, stats) }); got != 1 {
			t.Errorf("a result of %d meets: %.0f allocations, want 1", n, got)
		}
	}
}

// TestWriteResponseAllocs: an envelope is its fields and the result
// appended into a pooled buffer — what it allocates is the two header
// values, whatever the size of the result.
func TestWriteResponseAllocs(t *testing.T) {
	w := discard{http.Header{}}
	for _, n := range []int{1, 100} {
		result, _ := wire.EncodeResult(&ncq.Request{Terms: []string{"x"}}, func(yield func([]byte, error) bool) {
			for range n {
				yield(allocLine, nil)
			}
		}, &ncq.StreamStats{})
		resp := &wire.Response{Generation: 3, TookMS: 0.25, Truncated: true, NextCursor: "djIgMQ", Result: result}
		if got := testing.AllocsPerRun(50, func() { wire.WriteResponse(w, resp) }); got > 2 {
			t.Errorf("an envelope around %d meets: %.0f allocations, want at most 2", n, got)
		}
	}
}
