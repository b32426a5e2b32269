package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/wire"
)

// flushRecorder wraps httptest.ResponseRecorder and snapshots the body
// length at every Flush — the "flush-recording client" of the
// streaming contract: each snapshot is a moment at which bytes were
// pushed to the client while the handler was still running.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushLens []int
}

func (f *flushRecorder) Flush() {
	f.flushLens = append(f.flushLens, f.Body.Len())
}

func doStream(t *testing.T, s *Server, body string) *flushRecorder {
	t.Helper()
	return doStreamAt(t, s, "/v2/query?stream=1", body)
}

func doStreamAt(t *testing.T, s *Server, path, body string) *flushRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// streamLines decodes an NDJSON body into meet lines and the trailer.
func streamLines(t *testing.T, body string) (meets []ncq.CorpusMeet, trailer wire.Trailer) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	sawTrailer := false
	for sc.Scan() {
		if sawTrailer {
			t.Fatalf("line after trailer: %s", sc.Text())
		}
		var line struct {
			Meet    *ncq.CorpusMeet `json:"meet"`
			Trailer bool            `json:"trailer"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("error line: %s", line.Error)
		case line.Trailer:
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
			sawTrailer = true
		case line.Meet != nil:
			meets = append(meets, *line.Meet)
		default:
			t.Fatalf("unrecognised line: %s", sc.Text())
		}
	}
	if !sawTrailer {
		t.Fatalf("stream ended without a trailer:\n%s", body)
	}
	return meets, trailer
}

// TestQueryV2Stream pins the NDJSON contract: the streamed meets equal
// the batch endpoint's answer in the same order, the trailer carries
// the counters, and — the incremental-delivery assertion — the first
// line was flushed to the client on its own, before the handler wrote
// the rest of the response.
func TestQueryV2Stream(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	body := `{"terms":["Bit","1999"],"exclude_root":true}`
	rec := doStream(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	meets, trailer := streamLines(t, rec.Body.String())
	if len(meets) == 0 {
		t.Fatal("no meets streamed")
	}
	if trailer.TookMS < 0 || trailer.Truncated {
		t.Errorf("trailer = %+v", trailer)
	}

	// Same answers, same order, as the non-streaming endpoint.
	batch := do(t, s, "POST", "/v2/query", body)
	if batch.Code != http.StatusOK {
		t.Fatalf("plain v2: %d", batch.Code)
	}
	resp := decode[wireQueryResponse](t, batch)
	if len(resp.Result.Meets) != len(meets) {
		t.Fatalf("stream %d meets, batch %d", len(meets), len(resp.Result.Meets))
	}
	for i := range meets {
		if meets[i].Source != resp.Result.Meets[i].Source ||
			meets[i].Node != resp.Result.Meets[i].Node ||
			meets[i].Distance != resp.Result.Meets[i].Distance {
			t.Errorf("meet %d: stream %+v vs batch %+v", i, meets[i], resp.Result.Meets[i])
		}
	}

	// Incremental delivery: the first flush pushed exactly the first
	// line — a complete, parseable record observable before the handler
	// wrote any more — and by the time the handler returned every byte
	// had been flushed.
	if len(rec.flushLens) == 0 {
		t.Fatal("nothing was flushed")
	}
	firstChunk := rec.Body.String()[:rec.flushLens[0]]
	if !strings.HasSuffix(firstChunk, "\n") || strings.Count(firstChunk, "\n") != 1 {
		t.Fatalf("first flush is not exactly one line: %q", firstChunk)
	}
	var first struct {
		Meet *ncq.CorpusMeet `json:"meet"`
	}
	if err := json.Unmarshal([]byte(firstChunk), &first); err != nil || first.Meet == nil {
		t.Fatalf("first flushed line is not a meet: %q (%v)", firstChunk, err)
	}
	if rec.flushLens[0] >= rec.Body.Len() {
		t.Fatal("first flush already held the complete response — nothing streamed")
	}
	if last := rec.flushLens[len(rec.flushLens)-1]; last != rec.Body.Len() {
		t.Errorf("%d of %d bytes flushed when the handler returned", last, rec.Body.Len())
	}

	// A coordinator's first merged answer waits on the header and on the
	// first meet: with ?header=1 each of the two is a flush of its own.
	rec = doStreamAt(t, s, "/v2/query?stream=1&header=1", body)
	lines := strings.SplitAfter(rec.Body.String(), "\n")
	if len(rec.flushLens) < 3 || rec.flushLens[0] != len(lines[0]) || rec.flushLens[1] != len(lines[0])+len(lines[1]) ||
		!strings.HasPrefix(lines[0], `{"header":true`) || !strings.HasPrefix(lines[1], `{"meet":`) {
		t.Errorf("flushes at %v of\n%s", rec.flushLens, rec.Body)
	}

	// The tail is throughput: a long answer leaves in a handful of
	// flushes (full budgets, the trailer, the delay bound if this machine
	// stalls), not one per line.
	var long strings.Builder
	long.WriteString("<bib>")
	for i := 0; i < 300; i++ {
		long.WriteString("<article><author>Bit</author><year>1999</year></article>")
	}
	long.WriteString("</bib>")
	if rec := do(t, s, "PUT", "/v1/docs/long", long.String()); rec.Code != http.StatusCreated {
		t.Fatalf("PUT long: %d %s", rec.Code, rec.Body)
	}
	rec = doStream(t, s, body)
	if n := strings.Count(rec.Body.String(), "\n"); n < 200 || len(rec.flushLens) > n/8 {
		t.Errorf("%d lines left in %d flushes", n, len(rec.flushLens))
	}
	if last := rec.flushLens[len(rec.flushLens)-1]; last != rec.Body.Len() {
		t.Errorf("%d of %d bytes flushed when the handler returned", last, rec.Body.Len())
	}
}

// TestQueryV2StreamLimitAndCursor walks a streamed result across pages
// via the trailer's cursor.
func TestQueryV2StreamLimitAndCursor(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	full, _ := streamLines(t, doStream(t, s, `{"terms":["Bit","1999"],"exclude_root":true}`).Body.String())
	if len(full) < 2 {
		t.Fatalf("workload too small: %d meets", len(full))
	}
	var collected []ncq.CorpusMeet
	cursor := ""
	for pages := 0; ; pages++ {
		body := `{"terms":["Bit","1999"],"exclude_root":true,"limit":1`
		if cursor != "" {
			body += `,"cursor":"` + cursor + `"`
		}
		body += `}`
		rec := doStream(t, s, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: %d %s", pages, rec.Code, rec.Body)
		}
		meets, trailer := streamLines(t, rec.Body.String())
		collected = append(collected, meets...)
		if trailer.NextCursor == "" {
			break
		}
		cursor = trailer.NextCursor
		if pages > len(full) {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(collected) != len(full) {
		t.Fatalf("paged stream returned %d meets, full stream %d", len(collected), len(full))
	}
}

// TestQueryV2StreamRejects pins the 400 family — a batch body cannot
// stream, and query text the parser refuses is refused before any line
// is written — beside what is not in it any more: a query-language
// request streams the meets its plain form answers with, projected
// text included.
func TestQueryV2StreamRejects(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	if rec := doStream(t, s, `{"batch":[{"terms":["Bit"]}]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("batch stream: %d", rec.Code)
	}
	if rec := doStream(t, s, `{"query":"SELECT tag(e) FROM"}`); rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("malformed query-language stream: %d %s", rec.Code, rec.Body)
	}
	if rec := doStream(t, s, `{"doc":"ghost","terms":["Bit"]}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown doc stream: %d", rec.Code)
	}
	const q = `{"query":"SELECT value(e) FROM //last AS e"}`
	rec := doStream(t, s, q)
	if rec.Code != http.StatusOK {
		t.Fatalf("query-language stream: %d %s", rec.Code, rec.Body)
	}
	meets, _ := streamLines(t, rec.Body.String())
	plain := decode[wireQueryResponse](t, do(t, s, "POST", "/v2/query", q))
	if len(meets) == 0 || !reflect.DeepEqual(meets, plain.Result.Meets) {
		t.Errorf("streamed %+v, plain %+v", meets, plain.Result.Meets)
	}
	if p := meets[0].Projected; p == nil || p.Value != "Bit" {
		t.Errorf("first streamed row = %+v", meets[0])
	}
}

// TestQueryV2StaleCursorGone pins the mutation contract of v2 cursors:
// a page cursor presented after the corpus changed answers 410 Gone —
// on the plain endpoint and the streaming one — instead of silently
// cutting a page from a re-ranked answer set.
func TestQueryV2StaleCursorGone(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "POST", "/v2/query", `{"terms":["Bit","1999"],"exclude_root":true,"limit":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("first page: %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireQueryResponse](t, rec)
	if resp.NextCursor == "" {
		t.Fatal("first page minted no cursor")
	}
	next := `{"terms":["Bit","1999"],"exclude_root":true,"limit":1,"cursor":"` + resp.NextCursor + `"}`

	// Before any mutation the cursor pages on fine.
	if rec := do(t, s, "POST", "/v2/query", next); rec.Code != http.StatusOK {
		t.Fatalf("second page: %d %s", rec.Code, rec.Body)
	}

	// Mutate the corpus; the cursor's generation no longer matches.
	if rec := do(t, s, "PUT", "/v1/docs/extra", bibArticle); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v2/query", next); rec.Code != http.StatusGone {
		t.Errorf("stale cursor on /v2/query: %d %s", rec.Code, rec.Body)
	}
	if rec := doStream(t, s, next); rec.Code != http.StatusGone {
		t.Errorf("stale cursor on stream: %d %s", rec.Code, rec.Body)
	}
}

// TestStreamProjectionWitnessesNull pins the wire form of a projected
// node: it has no witnesses, and its line says so as null, not as an
// empty list.
func TestStreamProjectionWitnessesNull(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := doStream(t, s, `{"doc":"cwi","query":"SELECT value(e) FROM //year AS e"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("no projected node streamed: %s", rec.Body)
	}
	for _, line := range lines[:len(lines)-1] {
		if !strings.Contains(line, `"witnesses":null`) {
			t.Errorf("projected line %s: want \"witnesses\":null", line)
		}
	}
}
