package cluster

import (
	"encoding/json"
	"fmt"
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
// error text from both. The one documented exception is a valid
// query-language request, which a coordinator answers 501.
func TestWireParity(t *testing.T) {
	node := server.New(nil).Handler()
	_, w1 := startWorker(t, "w1")
	c, err := New(Config{Workers: []Worker{w1}})
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
		name, body    string
		queryLanguage bool // valid query-language request: 501 on a coordinator
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
		{"query language", `{` + sql + `}`, true},
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
				if tc.queryLanguage {
					if coordStatus != http.StatusNotImplemented {
						t.Errorf("coordinator: %d %q, want 501", coordStatus, coordErr)
					}
					return
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
}
