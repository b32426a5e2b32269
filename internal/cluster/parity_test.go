package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncq/internal/server"
	"ncq/internal/wire"
)

// TestWireParity pins that a single node and a coordinator are one
// API: each edge body, posted plain and with ?stream=1 to a node and
// to a one-worker coordinator, gets the same status and the same
// error text from both — or, for the one refusal only a worker can
// give (query text it cannot parse), the same status and the worker's
// text relayed under its name, before any line is written. The success
// path is held to the same standard below: same document, same bodies,
// same bytes, terms and query language alike.
func TestWireParity(t *testing.T) {
	nodeSrv := server.New(nil)
	node := nodeSrv.Handler()
	workerSrv, w1 := startWorker(t, "w1")
	bib := docXML(rand.New(rand.NewSource(21)), 30)
	addDoc(t, nodeSrv, "bib", bib)
	addDoc(t, workerSrv, "bib", bib)
	c, err := New(Config{Workers: []Worker{w1}, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	coord := c.Handler()

	batchOf := func(n int) string {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf(`{"terms":["t%d"]}`, i)
		}
		return `{"batch":[` + strings.Join(items, ",") + `]}`
	}
	const sql = `"query":"SELECT tag(e) FROM //year AS e"`
	cases := []struct {
		name, body string
		relayed    bool // refused by the worker: the coordinator names it in front of the node's text
	}{
		{"terms", `{"terms":["Bit","1999"],"exclude_root":true}`, false},
		{"allow_partial", `{"terms":["Bit"],"allow_partial":true}`, false},
		{"batch", batchOf(2), false},
		{"inline and batch", `{"terms":["x"],"batch":[{"terms":["y"]}]}`, false},
		{"inline option and batch", `{"allow_partial":true,"batch":[{"terms":["y"]}]}`, false},
		{"empty batch", `{"batch":[]}`, false},
		{"257-item batch", batchOf(wire.MaxBatch + 1), false},
		{"bad batch item", `{"batch":[{"terms":[""]},{"terms":["x"],"limit":-1}]}`, false},
		{"negative limit", `{"terms":["x"],"limit":-1}`, false},
		{"negative within", `{"terms":["x"],"within":-1}`, false},
		{"negative timeout", `{"terms":["x"],"timeout_ms":-1}`, false},
		{"empty term", `{"terms":["x",""]}`, false},
		{"query and terms", `{` + sql + `,"terms":["x"]}`, false},
		{"neither query nor terms", `{}`, false},
		{"meet option on a query", `{` + sql + `,"exclude_root":true}`, false},
		{"vague on a query", `{` + sql + `,"vague":{"max_slack":1}}`, false},
		{"max_slack out of range", `{"terms":["x"],"vague":{"max_slack":99}}`, false},
		{"unknown field", `{"trems":["x"]}`, false},
		{"malformed", `{"terms":[`, false},
		{"bad cursor", `{"terms":["x"],"cursor":"@@@"}`, false},
		{"9 MiB body", `{"terms":["` + strings.Repeat("x", 9<<20) + `"]}`, false},
		{"query language", `{` + sql + `}`, false},
		{"query-language syntax error", `{"query":"SELECT tag(e) FROM"}`, true},
	}
	post := func(h http.Handler, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		var e struct {
			Error   string `json:"error"`
			Results []struct {
				Status int    `json:"status"`
				Error  string `json:"error"`
			} `json:"results"`
		}
		first, _, _ := strings.Cut(rec.Body.String(), "\n") // a stream's error, if any, is its only line
		_ = json.Unmarshal([]byte(first), &e)
		for _, item := range e.Results { // a batch fails item by item
			if item.Status != http.StatusOK {
				e.Error += fmt.Sprintf("[%d %s]", item.Status, item.Error)
			}
		}
		return rec.Code, e.Error
	}
	for _, tc := range cases {
		for _, path := range []string{"/v2/query", "/v2/query?stream=1"} {
			t.Run(tc.name+" "+path, func(t *testing.T) {
				nodeStatus, nodeErr := post(node, path, tc.body)
				coordStatus, coordErr := post(coord, path, tc.body)
				if tc.relayed && strings.HasPrefix(coordErr, "worker w1: "+nodeErr) {
					coordErr = nodeErr
				}
				if nodeStatus != coordStatus || nodeErr != coordErr {
					t.Errorf("node %d %q, coordinator %d %q", nodeStatus, nodeErr, coordStatus, coordErr)
				}
				if nodeStatus != http.StatusOK && nodeErr == "" {
					t.Errorf("node %d without error text", nodeStatus)
				}
			})
		}
	}

	// The success path. view renders everything of one answer that must
	// not depend on the role: the X-NCQ-Cache header and, per envelope or
	// batch item, status, cached, truncated, whether a cursor was minted
	// and the result bytes; for a stream, every meet line and the
	// trailer's counters. The generation and the cursor strings are
	// role-specific; took_ms is a clock.
	type page struct {
		Status     int             `json:"status"`
		Cached     bool            `json:"cached"`
		Truncated  bool            `json:"truncated"`
		NextCursor string          `json:"next_cursor"`
		Incomplete bool            `json:"incomplete"`
		Unmatched  int             `json:"unmatched"` // stream trailer
		Result     json.RawMessage `json:"result"`
		Results    []page          `json:"results"` // batch
	}
	show := func(p page) string {
		return fmt.Sprintf("[%d cached=%t truncated=%t cursor=%t incomplete=%t unmatched=%d %s]",
			p.Status, p.Cached, p.Truncated, p.NextCursor != "", p.Incomplete, p.Unmatched, p.Result)
	}
	// view posts body and follows the role's own cursors to the end of
	// the chain, concatenating the pages.
	view := func(h http.Handler, path, body string) string {
		var out strings.Builder
		for cursor := ""; ; {
			b := body
			if cursor != "" {
				b = strings.TrimSuffix(body, "}") + fmt.Sprintf(`,"cursor":%q}`, cursor)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(b)))
			fmt.Fprintf(&out, "%d cache=%s ", rec.Code, rec.Header().Get("X-NCQ-Cache"))
			var last page
			for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
				last = page{}
				if err := json.Unmarshal([]byte(line), &last); err != nil {
					t.Fatalf("%s %s: undecodable line %q: %v", path, b, line, err)
				}
				switch {
				case strings.HasPrefix(line, `{"meet":`):
					out.WriteString(line + "\n")
				case last.Results != nil:
					for _, item := range last.Results {
						out.WriteString(show(item))
					}
				default:
					out.WriteString(show(last))
				}
			}
			if cursor = last.NextCursor; cursor == "" {
				return out.String()
			}
		}
	}
	const terms = `{"terms":["Author1","199"],"exclude_root":true}`
	bodies := []struct{ name, body string }{
		{"terms", terms},
		{"doc terms", `{"doc":"bib","terms":["Author2","Topic"],"exclude_root":true}`},
		{"cursor chain", `{"terms":["Author","199"],"exclude_root":true,"limit":4}`},
		// Neither item was posted before: the duplicate shares its twin's
		// one execution, so neither is a cache hit on the first post.
		{"batch with a duplicate", `{"batch":[{"terms":["Author3","199"]},{"terms":["Topic3"]},{"terms":["Author3","199"]}]}`},
		{"vague", `{"terms":["Author1","199"],"exclude_root":true,"restrict":["/bib/artcle"],"vague":{"max_slack":2}}`},
		{"query-language meet", `{"query":"SELECT meet(a, y; EXCLUDE /bib) FROM //author/cdata AS a, //year/cdata AS y WHERE a CONTAINS 'Author1' AND y CONTAINS '199'"}`},
		{"query-language projection", `{"doc":"bib","query":"SELECT value(e) FROM //title AS e WHERE e CONTAINS 'Topic3'"}`},
		{"query-language cursor chain", `{"query":"SELECT tag(e), xml(e) FROM //year AS e","limit":2}`},
	}
	for _, tc := range bodies {
		for _, path := range []string{"/v2/query", "/v2/query?stream=1"} {
			if path != "/v2/query" && strings.Contains(tc.body, `"batch"`) {
				continue // a batch cannot stream; the refusal is compared above
			}
			t.Run("success "+tc.name+" "+path, func(t *testing.T) {
				for _, post := range []string{"first", "repeated"} {
					nodeView, coordView := view(node, path, tc.body), view(coord, path, tc.body)
					if nodeView != coordView {
						t.Errorf("%s post:\nnode        %.400s\ncoordinator %.400s", post, nodeView, coordView)
					}
					if !strings.Contains(nodeView, `"meets"`) && !strings.Contains(nodeView, `{"meet":`) {
						t.Errorf("%s post: workload degenerate, no meets: %.400s", post, nodeView)
					}
					if want := map[string]string{"first": "cache=miss", "repeated": "cache=hit"}[post]; path == "/v2/query" &&
						!strings.Contains(tc.body, `"batch"`) && !strings.Contains(nodeView, want) {
						t.Errorf("%s post: want %s: %.400s", post, want, nodeView)
					}
				}
			})
		}
	}
}
