package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncq/internal/leakcheck"
)

// streamObjects posts body with ?stream=1 to h and returns each meet
// line's object: the bytes between {"meet": and the line's closing }.
func streamObjects(t testing.TB, h http.Handler, body string) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/query?stream=1", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream %s: %d %s", body, rec.Code, rec.Body)
	}
	var objects []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if line, ok := bytes.CutPrefix(sc.Bytes(), []byte(`{"meet":`)); ok {
			objects = append(objects, string(line[:len(line)-1]))
		}
	}
	return objects
}

// pageChain follows body's cursor chain at limit through h, page by
// page, and returns every page's "meets" elements in order.
func pageChain(t testing.TB, h http.Handler, body string, limit int) []string {
	t.Helper()
	var objects []string
	cursor := ""
	for pages := 0; ; pages++ {
		paged := fmt.Sprintf(`%s,"limit":%d,"cursor":%q}`, strings.TrimSuffix(body, "}"), limit, cursor)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/query", strings.NewReader(paged)))
		var env struct {
			NextCursor string `json:"next_cursor"`
			Result     struct {
				Meets []json.RawMessage `json:"meets"`
			} `json:"result"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &env) != nil {
			t.Fatalf("page %d of %s: %d %s", pages, paged, rec.Code, rec.Body)
		}
		if len(env.Result.Meets) > limit || (env.NextCursor != "" && len(env.Result.Meets) != limit) {
			t.Fatalf("page %d of %s: %d meets", pages, paged, len(env.Result.Meets))
		}
		for _, m := range env.Result.Meets {
			objects = append(objects, string(m))
		}
		if env.NextCursor == "" {
			return objects
		}
		cursor = env.NextCursor
	}
}

// pageChainBodies are the requests a page chain is walked for: terms
// over the corpus and one sharded document, a query-language
// projection, and a vague request.
var pageChainBodies = []string{
	`{"terms":["Author","199"],"exclude_root":true}`,
	`{"doc":"big","terms":["Author1","1999"]}`,
	`{"query":"SELECT value(e), xml(e) FROM //year AS e"}`,
	`{"terms":["Author","199"],"exclude_root":true,"restrict":["/bib/articel"],"vague":{"max_slack":2}}`,
}

// TestPageChainEqualsStream: a page is the stream drained. Walking
// every page of a cursor chain — limits 1, 3 and 10 — yields, meet for
// meet and byte for byte, the objects of the unlimited stream's lines,
// and leaves no goroutine behind.
func TestPageChainEqualsStream(t *testing.T) {
	base := leakcheck.Take()
	s := newTestServer(t)
	loadDocs(t, s)
	if rec := do(t, s, "PUT", "/v1/docs/big?shards=3", shardedBib(40)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT big: %d %s", rec.Code, rec.Body)
	}
	h := s.Handler()
	for _, body := range pageChainBodies {
		want := streamObjects(t, h, body)
		if len(want) < 4 {
			t.Fatalf("%s streams %d meets; a chain needs several pages", body, len(want))
		}
		for _, limit := range []int{1, 3, 10} {
			if got := pageChain(t, h, body, limit); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s at limit %d: pages\n%s\nstream\n%s", body, limit, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
	base.Check(t, 0, "the page chains")
}
