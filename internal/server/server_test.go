package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/pathsum"
	"ncq/internal/wire"
)

// Three bibliographies marking up the same item three different ways —
// the cross-bibliography scenario of the paper's Section 4.
const (
	bibArticle = `<bib><article><author><first>Ben</first><last>Bit</last></author>` +
		`<title>How to Hack</title><year>1999</year></article>` +
		`<article><author><last>Code</last></author><title>Sorting</title><year>1997</year></article></bib>`
	bibEntry = `<refs><entry><who>Ben Bit</who><what>How to Hack</what><when>1999</when></entry>` +
		`<entry><who>Carol Code</who><what>Sorting Things</what><when>1997</when></entry></refs>`
	bibRecord = `<library><record><person>Bit, Ben</person><published>1999</published></record>` +
		`<record><person>Doe, Jane</person><published>2001</published></record></library>`
)

func newTestServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	return New(nil, opts...)
}

// do runs one request through the server's handler.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// decode unmarshals a response body, failing the test on bad JSON.
func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

// errorResponse mirrors the error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// The wire* types mirror the response envelopes with their raw result
// payloads decoded into typed form, as a client would read them.
type wireQueryResponse struct {
	Cached     bool         `json:"cached"`
	Generation uint64       `json:"generation"`
	TookMS     float64      `json:"took_ms"`
	Truncated  bool         `json:"truncated"`
	NextCursor string       `json:"next_cursor"`
	Result     *wire.Result `json:"result"`
}

type wireBatchItem struct {
	Status     int          `json:"status"`
	Cached     bool         `json:"cached"`
	Error      string       `json:"error"`
	Truncated  bool         `json:"truncated"`
	NextCursor string       `json:"next_cursor"`
	Result     *wire.Result `json:"result"`
}

type wireBatchResponse struct {
	Generation uint64          `json:"generation"`
	TookMS     float64         `json:"took_ms"`
	Results    []wireBatchItem `json:"results"`
}

// answerOf renders the deterministic part of a query response — the
// generation and the raw result bytes; took_ms naturally varies — for
// byte-for-byte comparisons between nodes.
func answerOf(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	env := decode[wire.Response](t, rec)
	return fmt.Sprintf("gen=%d cached=%t result=%s", env.Generation, env.Cached, env.Result)
}

func loadDocs(t *testing.T, s *Server) {
	t.Helper()
	for name, xml := range map[string]string{
		"cwi": bibArticle, "personal": bibEntry, "library": bibRecord,
	} {
		if rec := do(t, s, "PUT", "/v1/docs/"+name, xml); rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, rec.Code, rec.Body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := decode[map[string]any](t, rec)
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestPutDoc(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "PUT", "/v1/docs/bib", bibArticle)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	info := decode[wire.Doc](t, rec)
	if info.Name != "bib" || info.Stats.Nodes == 0 {
		t.Errorf("info = %+v", info)
	}
	// Replacing returns 200, not 201.
	if rec := do(t, s, "PUT", "/v1/docs/bib", bibEntry); rec.Code != http.StatusOK {
		t.Errorf("replace: %d", rec.Code)
	}
	if s.corpus.Len() != 1 {
		t.Errorf("corpus len = %d", s.corpus.Len())
	}
}

// TestPutDocMalformedXML: whatever the parser refuses (the table is
// xmltree's TestParseRefusals; these are its kinds) is a 400 whose
// message carries the input offset, on the plain and the sharded door,
// and registers nothing.
func TestPutDocMalformedXML(t *testing.T) {
	s := newTestServer(t)
	for _, body := range []string{
		"<unclosed>",
		"<a><b></a>",
		"<a><x:b></y:b></a>",
		"<a>&nbsp;</a>",
		`<a x="<"/>`,
		"<a x=1/>",
		"<a>]]></a>",
		"<a>\xff</a>",
		"<a>\x01</a>",
		`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
		"<a><cdata>x</cdata></a>",
		"<a/><b/>",
		"",
	} {
		for _, target := range []string{"/v1/docs/bad", "/v1/docs/bad?shards=2"} {
			rec := do(t, s, "PUT", target, body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("PUT %s %q: status = %d, want 400", target, body, rec.Code)
			}
			if e := decode[errorResponse](t, rec); !strings.HasPrefix(e.Error, "parse document: ncq: xmltree: parse at byte ") {
				t.Errorf("PUT %s %q: error = %q", target, body, e.Error)
			}
		}
	}
	if s.corpus.Len() != 0 {
		t.Errorf("refused uploads registered %d document(s)", s.corpus.Len())
	}
}

// TestPutDocTooDeep: a document nesting deeper than pathsum.MaxDepth is
// a parse error like any other — refused with the 400 a client already
// handles, whichever ingest path the upload takes, and nothing is
// registered. One level less is an ordinary document.
func TestPutDocTooDeep(t *testing.T) {
	s := newTestServer(t)
	chain := func(n int) string { return strings.Repeat("<a>", n) + strings.Repeat("</a>", n) }
	for _, target := range []string{"/v1/docs/deep", "/v1/docs/deep?shards=2"} {
		rec := do(t, s, "PUT", target, chain(pathsum.MaxDepth+1))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", target, rec.Code)
		}
		e := decode[errorResponse](t, rec)
		if !strings.HasPrefix(e.Error, "parse document: ") || !strings.Contains(e.Error, "nests deeper than 4096 levels") {
			t.Errorf("%s: error = %q", target, e.Error)
		}
	}
	if s.corpus.Len() != 0 {
		t.Errorf("a refused upload registered %d document(s)", s.corpus.Len())
	}
	if rec := do(t, s, "PUT", "/v1/docs/deep", chain(pathsum.MaxDepth)); rec.Code != http.StatusCreated {
		t.Errorf("%d levels: status = %d, want 201", pathsum.MaxDepth, rec.Code)
	}
}

func TestPutDocOversized(t *testing.T) {
	s := newTestServer(t, WithMaxBody(64))
	big := "<a>" + strings.Repeat("x", 128) + "</a>"
	rec := do(t, s, "PUT", "/v1/docs/big", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
}

func TestPutDocInvalidName(t *testing.T) {
	s := newTestServer(t)
	long := strings.Repeat("n", maxDocNameLen+1)
	rec := do(t, s, "PUT", "/v1/docs/"+long, bibArticle)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestGetDeleteDoc(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "GET", "/v1/docs/cwi", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	if info := decode[wire.Doc](t, rec); info.Name != "cwi" {
		t.Errorf("info = %+v", info)
	}
	if rec := do(t, s, "GET", "/v1/docs/nope", ""); rec.Code != http.StatusNotFound {
		t.Errorf("get missing: %d", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/docs/cwi", ""); rec.Code != http.StatusNoContent {
		t.Errorf("delete: %d", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/docs/cwi", ""); rec.Code != http.StatusNotFound {
		t.Errorf("delete again: %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/docs/cwi", ""); rec.Code != http.StatusNotFound {
		t.Errorf("get after delete: %d", rec.Code)
	}
}

// TestListDocs pins a node's listing byte for byte: the same keys in
// the same order as ever, and no "worker" key, which only a
// coordinator's listing carries.
func TestListDocs(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	want := `{"docs":[`
	for i, name := range s.corpus.Names() { // loadDocs registers in map order
		st, _, _ := s.corpus.MemberStats(name)
		if i > 0 {
			want += ","
		}
		want += fmt.Sprintf(`{"name":%q,"shards":1,"stats":{"nodes":%d,"paths":%d,"associations":%d,"mem_bytes":%d}}`,
			name, st.Nodes, st.Paths, st.Associations, st.MemBytes)
	}
	want += `],"generation":3}` + "\n"
	if got := do(t, s, "GET", "/v1/docs", "").Body.String(); got != want {
		t.Errorf("GET /v1/docs =\n%s\nwant\n%s", got, want)
	}
}

func TestQueryTermsSingleDoc(t *testing.T) {
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
}

func TestQueryTermsCorpus(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "POST", "/v2/query", `{"terms":["Bit","1999"],"exclude_root":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireQueryResponse](t, rec)
	// The same item is found under all three markups, each answer typed
	// by its own instance.
	tags := map[string]string{}
	for _, m := range resp.Result.Meets {
		tags[m.Source] = m.Tag
	}
	if tags["cwi"] != "article" || tags["personal"] != "entry" || tags["library"] != "record" {
		t.Errorf("tags = %v", tags)
	}
}

func TestQueryLanguageSingleDoc(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","query":"SELECT meet(e1, e2) FROM //cdata AS e1, //cdata AS e2 WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireQueryResponse](t, rec)
	if resp.Result.Mode != "query" || len(resp.Result.Meets) == 0 {
		t.Fatalf("result = %+v", resp.Result)
	}
	if m := resp.Result.Meets[0]; m.Source != "cwi" || m.Tag != "article" || len(m.Witnesses) != 2 {
		t.Errorf("answer = %+v", resp.Result.Meets)
	}
}

func TestQueryLanguageCorpus(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "POST", "/v2/query",
		`{"query":"SELECT meet(e1, e2) FROM //cdata AS e1, //cdata AS e2 WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireQueryResponse](t, rec)
	sources := map[string]bool{}
	for _, m := range resp.Result.Meets {
		sources[m.Source] = true
	}
	if !sources["cwi"] || !sources["personal"] || !sources["library"] {
		t.Errorf("answers = %+v", resp.Result.Meets)
	}
}

func TestQueryValidation(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"terms": [`, http.StatusBadRequest},
		{"unknown field", `{"term":["Bit"]}`, http.StatusBadRequest},
		{"neither mode", `{}`, http.StatusBadRequest},
		{"both modes", `{"query":"SELECT e FROM //x AS e","terms":["a"]}`, http.StatusBadRequest},
		{"empty term", `{"terms":[""]}`, http.StatusBadRequest},
		{"negative limit", `{"terms":["a"],"limit":-1}`, http.StatusBadRequest},
		{"meet options on query mode", `{"query":"SELECT e FROM //x AS e","exclude_root":true}`, http.StatusBadRequest},
		{"unknown doc", `{"doc":"nope","terms":["a"]}`, http.StatusNotFound},
		{"bad pattern", `{"terms":["Bit"],"exclude":["[[["]}`, http.StatusBadRequest},
		{"bad query", `{"query":"SELECT FROM WHERE"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, "POST", "/v2/query", tc.body)
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			if e := decode[errorResponse](t, rec); e.Error == "" {
				t.Errorf("no error message in %s", rec.Body)
			}
		})
	}
}

func TestQueryOversizedBody(t *testing.T) {
	s := newTestServer(t)
	body := fmt.Sprintf(`{"terms":[%q]}`, strings.Repeat("x", wire.MaxBody))
	rec := do(t, s, "POST", "/v2/query", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestQueryLimitTruncates(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	rec := do(t, s, "POST", "/v2/query", `{"terms":["19"],"limit":1}`)
	resp := decode[wireQueryResponse](t, rec)
	if len(resp.Result.Meets) != 1 || !resp.Result.Truncated {
		t.Errorf("result = %+v", resp.Result)
	}
	// Query-language limit caps total rows across sources.
	rec = do(t, s, "POST", "/v2/query",
		`{"query":"SELECT tag(e) FROM //cdata AS e","limit":2}`)
	resp = decode[wireQueryResponse](t, rec)
	if total := len(resp.Result.Meets); total != 2 || !resp.Result.Truncated {
		t.Errorf("total rows = %d, truncated = %t", total, resp.Result.Truncated)
	}
}

func TestQueryCacheHitAndHeader(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	body := `{"terms":["Bit","1999"],"exclude_root":true}`
	rec := do(t, s, "POST", "/v2/query", body)
	if h := rec.Header().Get("X-NCQ-Cache"); h != "miss" {
		t.Errorf("first call cache header = %q", h)
	}
	if resp := decode[wireQueryResponse](t, rec); resp.Cached {
		t.Error("first call reported cached")
	}
	// Same request modulo whitespace in formatting: a hit.
	rec = do(t, s, "POST", "/v2/query", `{"terms":["Bit","1999"], "exclude_root": true}`)
	if h := rec.Header().Get("X-NCQ-Cache"); h != "hit" {
		t.Errorf("second call cache header = %q", h)
	}
	resp := decode[wireQueryResponse](t, rec)
	if !resp.Cached || len(resp.Result.Meets) != 3 {
		t.Errorf("cached resp = %+v", resp.Result)
	}
	// A different request misses.
	rec = do(t, s, "POST", "/v2/query", `{"terms":["Bit"]}`)
	if h := rec.Header().Get("X-NCQ-Cache"); h != "miss" {
		t.Errorf("third call cache header = %q", h)
	}
}

func TestQueryLanguageWhitespaceNormalization(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	q1 := `{"doc":"cwi","query":"SELECT tag(e) FROM //year AS e"}`
	q2 := `{"doc":"cwi","query":"SELECT   tag(e)\n FROM //year  AS e"}`
	do(t, s, "POST", "/v2/query", q1)
	rec := do(t, s, "POST", "/v2/query", q2)
	if h := rec.Header().Get("X-NCQ-Cache"); h != "hit" {
		t.Errorf("whitespace-variant query was not a cache hit (%q)", h)
	}
}

func TestMutationInvalidatesCache(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	body := `{"terms":["Bit","1999"],"exclude_root":true}`
	do(t, s, "POST", "/v2/query", body)
	if rec := do(t, s, "POST", "/v2/query", body); rec.Header().Get("X-NCQ-Cache") != "hit" {
		t.Fatal("warm-up did not cache")
	}
	// Any corpus mutation invalidates: PUT here, DELETE in the
	// integration test.
	do(t, s, "PUT", "/v1/docs/fourth", bibRecord)
	rec := do(t, s, "POST", "/v2/query", body)
	if rec.Header().Get("X-NCQ-Cache") != "miss" {
		t.Error("cache served a stale result after PUT")
	}
	resp := decode[wireQueryResponse](t, rec)
	if resp.Generation != 4 {
		t.Errorf("generation = %d", resp.Generation)
	}
}

func TestStats(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	body := `{"terms":["Bit"]}`
	do(t, s, "POST", "/v2/query", body)
	do(t, s, "POST", "/v2/query", body)
	rec := do(t, s, "GET", "/v1/stats", "")
	st := decode[statsResponse](t, rec)
	if st.Docs != 3 || st.TotalNodes == 0 || st.Queries != 2 || st.Mutations != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v", st.Cache)
	}
	if st.Generation != 3 {
		t.Errorf("generation = %d", st.Generation)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTestServer(t, WithCacheBytes(0))
	loadDocs(t, s)
	body := `{"terms":["Bit"]}`
	do(t, s, "POST", "/v2/query", body)
	rec := do(t, s, "POST", "/v2/query", body)
	if rec.Header().Get("X-NCQ-Cache") != "miss" {
		t.Error("disabled cache produced a hit")
	}
}

func TestPreloadedCorpus(t *testing.T) {
	c := ncq.NewCorpus()
	db, err := ncq.OpenString(bibArticle)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("seed", db); err != nil {
		t.Fatal(err)
	}
	s := New(c)
	rec := do(t, s, "GET", "/v1/docs/seed", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("preloaded doc not visible: %d", rec.Code)
	}
	if s.Corpus() != c {
		t.Error("Corpus() did not return the wired corpus")
	}
}
