package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestServerEndToEnd drives ncqd's handler over a real HTTP listener:
// it loads three documents, fires concurrent queries from many
// clients, observes a cache hit on a repeated query, and verifies that
// DELETE /v1/docs/{name} invalidates the cache and changes the answer.
func TestServerEndToEnd(t *testing.T) {
	srv := New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	post := func(t *testing.T, body string) (*wireQueryResponse, string) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v2/query: %d %s", resp.StatusCode, raw)
		}
		var qr wireQueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
		return &qr, resp.Header.Get("X-NCQ-Cache")
	}

	// Load three documents with three different markups.
	for name, xml := range map[string]string{
		"cwi": bibArticle, "personal": bibEntry, "library": bibRecord,
	} {
		req, err := http.NewRequest("PUT", ts.URL+"/v1/docs/"+name, bytes.NewReader([]byte(xml)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d", name, resp.StatusCode)
		}
	}

	// Concurrent clients mixing corpus-wide and per-document queries.
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (g + i) % 3 {
				case 0:
					qr, _ := post(t, `{"terms":["Bit","1999"],"exclude_root":true}`)
					if len(qr.Result.Meets) != 3 {
						errs <- fmt.Errorf("corpus meets = %d", len(qr.Result.Meets))
						return
					}
				case 1:
					qr, _ := post(t, `{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true}`)
					if len(qr.Result.Meets) != 1 || qr.Result.Meets[0].Tag != "article" {
						errs <- fmt.Errorf("cwi meets = %+v", qr.Result.Meets)
						return
					}
				case 2:
					qr, _ := post(t, `{"doc":"personal","query":"SELECT tag(e) FROM //when AS e"}`)
					if len(qr.Result.Meets) != 2 || qr.Result.Meets[0].Tag != "when" {
						errs <- fmt.Errorf("personal answers = %+v", qr.Result.Meets)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A repeated query is served from the cache.
	probe := `{"terms":["Bit","1999"],"exclude_root":true,"within":32}`
	if qr, hdr := post(t, probe); qr.Cached || hdr != "miss" {
		t.Fatalf("fresh probe: cached=%t header=%q", qr.Cached, hdr)
	}
	qr, hdr := post(t, probe)
	if !qr.Cached || hdr != "hit" {
		t.Fatalf("repeat probe: cached=%t header=%q", qr.Cached, hdr)
	}
	if len(qr.Result.Meets) != 3 {
		t.Fatalf("cached meets = %d", len(qr.Result.Meets))
	}

	// DELETE invalidates: the same query misses the cache and no longer
	// reports the evicted document.
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/docs/personal", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	qr, hdr = post(t, probe)
	if hdr != "miss" || qr.Cached {
		t.Fatalf("post-delete probe: cached=%t header=%q", qr.Cached, hdr)
	}
	if len(qr.Result.Meets) != 2 {
		t.Fatalf("post-delete meets = %d (%+v)", len(qr.Result.Meets), qr.Result.Meets)
	}
	for _, m := range qr.Result.Meets {
		if m.Source == "personal" {
			t.Fatalf("evicted document still answering: %+v", m)
		}
	}
}
