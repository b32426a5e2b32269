package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ncq/internal/wire"
)

func TestQueryV2SingleDoc(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireQueryResponse](t, rec)
	if resp.Cached || resp.Result.Mode != "terms" {
		t.Errorf("resp = %+v", resp)
	}
	if len(resp.Result.Meets) != 1 || resp.Result.Meets[0].Tag != "article" ||
		resp.Result.Meets[0].Source != "cwi" {
		t.Errorf("meets = %+v", resp.Result.Meets)
	}
	if resp.TookMS < 0 {
		t.Errorf("took_ms = %v", resp.TookMS)
	}
}

func TestQueryV2CorpusWideAndQueryLanguage(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "POST", "/v2/query", `{"terms":["Bit","1999"],"exclude_root":true}`)
	resp := decode[wireQueryResponse](t, rec)
	tags := map[string]string{}
	for _, m := range resp.Result.Meets {
		tags[m.Source] = m.Tag
	}
	if tags["cwi"] != "article" || tags["personal"] != "entry" || tags["library"] != "record" {
		t.Errorf("tags = %v", tags)
	}
	rec = do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","query":"SELECT meet(e1, e2) FROM //cdata AS e1, //cdata AS e2 WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'"}`)
	qresp := decode[wireQueryResponse](t, rec)
	if qresp.Result.Mode != "query" || len(qresp.Result.Meets) == 0 ||
		qresp.Result.Meets[0].Tag != "article" {
		t.Errorf("query result = %+v", qresp.Result)
	}
}

// TestQueryV2CursorPagination pages through a result set with limit 1
// and pins that the pages concatenate to the unpaginated answer.
func TestQueryV2CursorPagination(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	full := decode[wireQueryResponse](t, do(t, s, "POST", "/v2/query", `{"terms":["19"]}`))
	if len(full.Result.Meets) < 2 {
		t.Fatalf("workload too small: %d meets", len(full.Result.Meets))
	}
	var collected []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(full.Result.Meets) {
			t.Fatal("pagination does not terminate")
		}
		body := `{"terms":["19"],"limit":1`
		if cursor != "" {
			body += `,"cursor":` + fmt.Sprintf("%q", cursor)
		}
		body += `}`
		rec := do(t, s, "POST", "/v2/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: %d %s", pages, rec.Code, rec.Body)
		}
		page := decode[wireQueryResponse](t, rec)
		for _, m := range page.Result.Meets {
			collected = append(collected, fmt.Sprintf("%s/%d/%d", m.Source, m.Shard, m.Node))
		}
		if page.NextCursor == "" {
			if page.Truncated {
				t.Error("truncated final page without cursor")
			}
			break
		}
		if !page.Truncated {
			t.Error("cursor on an untruncated page")
		}
		cursor = page.NextCursor
	}
	var want []string
	for _, m := range full.Result.Meets {
		want = append(want, fmt.Sprintf("%s/%d/%d", m.Source, m.Shard, m.Node))
	}
	if strings.Join(collected, " ") != strings.Join(want, " ") {
		t.Errorf("paginated walk diverged:\n got %v\nwant %v", collected, want)
	}

	// A cursor from a different request is rejected with 400.
	first := decode[wireQueryResponse](t, do(t, s, "POST", "/v2/query", `{"terms":["19"],"limit":1}`))
	body := fmt.Sprintf(`{"terms":["Bit"],"limit":1,"cursor":%q}`, first.NextCursor)
	if rec := do(t, s, "POST", "/v2/query", body); rec.Code != http.StatusBadRequest {
		t.Errorf("foreign cursor: %d %s", rec.Code, rec.Body)
	}
}

func TestQueryV2Batch(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	body := `{"batch":[
		{"terms":["Bit","1999"],"exclude_root":true,"limit":2},
		{"doc":"ghost","terms":["x"]},
		{"terms":[""]},
		{"terms":["Bit","1999"],"exclude_root":true,"limit":2}
	]}`
	rec := do(t, s, "POST", "/v2/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireBatchResponse](t, rec)
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if r := resp.Results[0]; r.Status != http.StatusOK || r.Error != "" || len(r.Result.Meets) == 0 {
		t.Errorf("result 0 = %+v", r)
	}
	if r := resp.Results[1]; r.Status != http.StatusNotFound || !strings.Contains(r.Error, "unknown document") {
		t.Errorf("result 1 = %+v", r)
	}
	if r := resp.Results[2]; r.Status != http.StatusBadRequest || !strings.Contains(r.Error, "invalid request") {
		t.Errorf("result 2 = %+v", r)
	}
	if r := resp.Results[3]; r.Status != http.StatusOK || len(r.Result.Meets) != len(resp.Results[0].Result.Meets) {
		t.Errorf("duplicate diverged: %+v", r)
	}
	// A repeated batch is pure cache traffic.
	resp = decode[wireBatchResponse](t, do(t, s, "POST", "/v2/query", body))
	if !resp.Results[0].Cached || !resp.Results[3].Cached {
		t.Error("repeat batch not cached")
	}
}

// TestUnknownDocStatus is the satellite regression: ErrUnknownDoc maps
// to 404 — never 500 — on every query surface.
func TestUnknownDocStatus(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	// Query-language mode resolves the document too.
	if rec := do(t, s, "POST", "/v2/query", `{"doc":"ghost","query":"SELECT tag(e) FROM //x AS e"}`); rec.Code != http.StatusNotFound {
		t.Errorf("/v2/query (query mode): %d", rec.Code)
	}
	// Single: 404 with the unified error.
	rec := do(t, s, "POST", "/v2/query", `{"doc":"ghost","terms":["x"]}`)
	if rec.Code != http.StatusNotFound {
		t.Errorf("/v2/query: %d %s", rec.Code, rec.Body)
	}
	if e := decode[errorResponse](t, rec); !strings.Contains(e.Error, "unknown document") {
		t.Errorf("/v2/query error = %q", e.Error)
	}
	// Batch: per-item 404 status, whole response 200.
	rec = do(t, s, "POST", "/v2/query", `{"batch":[{"doc":"ghost","query":"SELECT tag(e) FROM //x AS e"}]}`)
	resp := decode[wireBatchResponse](t, rec)
	if resp.Results[0].Status != http.StatusNotFound {
		t.Errorf("v2 batch item status = %d", resp.Results[0].Status)
	}
}

func TestQueryV2Validation(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed", `{`, http.StatusBadRequest},
		{"unknown field", `{"trems":["x"]}`, http.StatusBadRequest},
		{"empty", `{}`, http.StatusBadRequest},
		{"inline and batch", `{"terms":["x"],"batch":[{"terms":["y"]}]}`, http.StatusBadRequest},
		{"inline limit with batch", `{"limit":1,"batch":[{"terms":["y"]}]}`, http.StatusBadRequest},
		{"inline options with batch", `{"exclude_root":true,"batch":[{"terms":["y"]}]}`, http.StatusBadRequest},
		{"negative timeout", `{"terms":["x"],"timeout_ms":-1}`, http.StatusBadRequest},
		{"bad cursor", `{"terms":["x"],"cursor":"@@@"}`, http.StatusBadRequest},
		{"empty batch item", `{"batch":[]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, "POST", "/v2/query", tc.body)
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
		})
	}
	var b strings.Builder
	b.WriteString(`{"batch":[`)
	for i := 0; i <= wire.MaxBatch; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"terms":["t%d"]}`, i)
	}
	b.WriteString(`]}`)
	if rec := do(t, s, "POST", "/v2/query", b.String()); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: %d", rec.Code)
	}
}

// TestQueryV2Deadline: a 1ms per-request deadline on a query that
// takes tens of milliseconds maps to 504. The deadline timer needs the
// scheduler to fire it, so on a loaded single-core box one attempt can
// race the query's completion — each attempt therefore uses a fresh
// (uncached) request, and any attempt timing out passes.
func TestQueryV2Deadline(t *testing.T) {
	s := newTestServer(t)
	// A heavyweight corpus: broad terms over several sharded documents.
	// Sized so the query body outlasts 1ms even on the columnar hot
	// path (the postings rebuild made 2500-record members finish
	// before the deadline timer could ever fire).
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("big%d", i)
		if rec := do(t, s, "PUT", "/v1/docs/"+name+"?shards=4", shardedBib(20000)); rec.Code != http.StatusCreated {
			t.Fatalf("put %s: %d", name, rec.Code)
		}
	}
	for attempt := 0; attempt < 5; attempt++ {
		body := fmt.Sprintf(`{"terms":["Author","199%d"],"exclude_root":true,"timeout_ms":1}`, attempt)
		rec := do(t, s, "POST", "/v2/query", body)
		if rec.Code == http.StatusGatewayTimeout {
			if e := decode[errorResponse](t, rec); !strings.Contains(e.Error, "deadline") {
				t.Errorf("deadline error = %q", e.Error)
			}
			return
		}
	}
	t.Error("no query under a 1ms deadline returned 504 in 5 attempts")
}

// TestQueryV2EmptyCorpus: corpus-wide runs on an empty corpus answer
// 200 with an empty result.
func TestQueryV2EmptyCorpus(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "POST", "/v2/query", `{"terms":["x"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireQueryResponse](t, rec)
	if resp.Result.Mode != "terms" || len(resp.Result.Meets) != 0 || resp.Truncated {
		t.Errorf("result = %+v", resp.Result)
	}
}

// TestV1QueryRoutesGone: /v2/query is the one query surface; the v1
// query endpoints are not registered any more and the mux answers 404.
func TestV1QueryRoutesGone(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	for _, path := range []string{"/v1/query", "/v1/query/batch"} {
		if rec := do(t, s, "POST", path, `{"terms":["Bit"]}`); rec.Code != http.StatusNotFound {
			t.Errorf("POST %s: %d, want 404", path, rec.Code)
		}
	}
}

// TestQueryRequestDeadline is the served half of the root package's
// test of the same name: timeout_ms reaches a query-language request,
// plain and streamed, as the 504 it is for terms — before any line.
func TestQueryRequestDeadline(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&doc, "<article><author>Author%d</author><year>%d</year></article>", i, 1990+i%10)
	}
	doc.WriteString("</bib>")
	s := newTestServer(t)
	if rec := do(t, s, "PUT", "/v1/docs/big", doc.String()); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body)
	}
	const q = `"query":"SELECT meet(a, y; EXCLUDE /bib) FROM //cdata AS a, //cdata AS y WHERE a CONTAINS 'Author' AND y CONTAINS '19'","limit":1`
	// Another page size, so that the deadlined requests below are misses.
	if rec := do(t, s, "POST", "/v2/query", strings.Replace(`{`+q+`}`, `"limit":1`, `"limit":2`, 1)); rec.Code != http.StatusOK {
		t.Fatalf("without a deadline: %d %s", rec.Code, rec.Body)
	}
	for _, path := range []string{"/v2/query", "/v2/query?stream=1"} {
		start := time.Now()
		rec := do(t, s, "POST", path, `{`+q+`,"timeout_ms":2}`)
		if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "deadline exceeded") {
			t.Errorf("%s with timeout_ms 2: %d %s after %v, want 504", path, rec.Code, rec.Body, time.Since(start))
		}
	}
}
