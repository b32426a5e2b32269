package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncq/internal/leakcheck"
	"ncq/internal/server"
)

// post sends body to the coordinator's handler h at path.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body)
	}
	return rec
}

// TestPageChainEqualsStream: a coordinator's page relays its workers'
// canonical lines exactly as its stream does. Every page of a cursor
// chain — limits 1, 3 and 10 — over three workers yields, byte for
// byte, the objects of the unlimited stream's meet lines; once the
// workers are closed, nothing the scatters started is left running.
func TestPageChainEqualsStream(t *testing.T) {
	base := leakcheck.Take()
	var workers []Worker
	var listeners []*httptest.Server
	for i := range 3 {
		name := fmt.Sprintf("w%d", i)
		ts := httptest.NewServer(server.New(nil, server.WithNodeName(name), server.WithRole("worker")).Handler())
		listeners = append(listeners, ts)
		workers = append(workers, Worker{Name: name, URL: ts.URL})
	}
	c, err := New(Config{Workers: workers, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	rng := rand.New(rand.NewSource(46))
	for i := range 9 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("PUT", fmt.Sprintf("/v1/docs/doc%d", i), strings.NewReader(docXML(rng, 6+rng.Intn(10)))))
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT doc%d: %d %s", i, rec.Code, rec.Body)
		}
	}
	for _, body := range []string{
		`{"terms":["Author1","199"],"exclude_root":true}`,
		`{"query":"SELECT value(e), xml(e) FROM //year AS e"}`,
		`{"terms":["Author1","Topic"],"exclude_root":true,"restrict":["/bib/articel"],"vague":{"max_slack":2}}`,
	} {
		var want []string
		sc := bufio.NewScanner(post(t, h, "/v2/query?stream=1", body).Body)
		for sc.Scan() {
			if line, ok := bytes.CutPrefix(sc.Bytes(), []byte(`{"meet":`)); ok {
				want = append(want, string(line[:len(line)-1]))
			}
		}
		if len(want) < 4 {
			t.Fatalf("%s streams %d meets; a chain needs several pages", body, len(want))
		}
		for _, limit := range []int{1, 3, 10} {
			var got []string
			for cursor := ""; ; {
				paged := fmt.Sprintf(`%s,"limit":%d,"cursor":%q}`, strings.TrimSuffix(body, "}"), limit, cursor)
				var env struct {
					NextCursor string `json:"next_cursor"`
					Result     struct {
						Meets []json.RawMessage `json:"meets"`
					} `json:"result"`
				}
				if err := json.Unmarshal(post(t, h, "/v2/query", paged).Body.Bytes(), &env); err != nil {
					t.Fatal(err)
				}
				for _, m := range env.Result.Meets {
					got = append(got, string(m))
				}
				if cursor = env.NextCursor; cursor == "" {
					break
				}
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s at limit %d: pages\n%s\nstream\n%s", body, limit, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
	for _, ts := range listeners {
		ts.Close()
	}
	c.Close()
	base.Check(t, 0, "the coordinator's page chains")
}
