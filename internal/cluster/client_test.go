package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ncq/internal/server"
)

// TestRetryRule pins the one retry rule over every route a coordinator
// sends a worker. A real worker sits behind a handler that refuses the
// first request on each route (method and path) with the given status
// and counts the attempts each coordinator request costs: a read the
// scatter or the proxy issues is attempted once more after a 503,
// nothing is after a 4xx, a mutation never is, and the health, listing
// and stats roll-ups are attempted once.
func TestRetryRule(t *testing.T) {
	routes := []struct {
		name, method, path, body string
		route                    string // what the worker sees
		after503                 int
	}{
		{"stream open", "POST", "/v2/query", `{"terms":["Bit"]}`, "POST /v2/query", 2},
		{"proxied GET", "GET", "/v1/docs/bib", "", "GET /v1/docs/bib", 2},
		{"PUT", "PUT", "/v1/docs/new", "<a>Bit</a>", "PUT /v1/docs/new", 1},
		{"DELETE", "DELETE", "/v1/docs/bib", "", "DELETE /v1/docs/bib", 1},
		{"healthz", "GET", "/v1/healthz", "", "GET /v1/healthz", 1},
		{"listing", "GET", "/v1/docs", "", "GET /v1/docs", 1},
		{"stats", "GET", "/v1/stats", "", "GET /v1/stats", 1},
	}
	for _, refusal := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		t.Run(fmt.Sprint(refusal), func(t *testing.T) {
			srv := server.New(nil, server.WithNodeName("w1"))
			addDoc(t, srv, "bib", `<bib><book><author>Bit</author></book></bib>`)
			var mu sync.Mutex
			seen := map[string]int{}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				route := r.Method + " " + r.URL.Path
				mu.Lock()
				seen[route]++
				first := seen[route] == 1
				mu.Unlock()
				if first {
					w.Header().Set("Retry-After", "1")
					http.Error(w, `{"error":"refused"}`, refusal)
					return
				}
				srv.Handler().ServeHTTP(w, r)
			}))
			defer ts.Close()
			_, coordTS := startCoordinator(t, Config{Workers: []Worker{{Name: "w1", URL: ts.URL}}})
			for _, rt := range routes {
				mu.Lock()
				before := seen[rt.route]
				mu.Unlock()
				httpDo(t, rt.method, coordTS.URL+rt.path, rt.body)
				mu.Lock()
				got := seen[rt.route] - before
				mu.Unlock()
				want := rt.after503
				if refusal != http.StatusServiceUnavailable {
					want = 1
				}
				if got != want {
					t.Errorf("%s after a %d: %d attempt(s), want %d", rt.name, refusal, got, want)
				}
			}
		})
	}
}

// oversizedWorker answers path with a JSON object padded past maxReply
// and every other route as an empty worker would.
func oversizedWorker(tb testing.TB, path string) Worker {
	tb.Helper()
	srv := server.New(nil, server.WithNodeName("big"))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","generation":1,"pad":"`)
		chunk := strings.Repeat("x", 64<<10)
		for n := 0; n <= maxReply; n += len(chunk) {
			if _, err := fmt.Fprint(w, chunk); err != nil {
				return
			}
		}
		fmt.Fprint(w, `"}`)
	}))
	tb.Cleanup(ts.Close)
	return Worker{Name: "big", URL: ts.URL}
}

// TestOversizedWorkerReplies pins the reply bound: a listing or a
// health body past maxReply is that worker's failure — named in
// worker_errors, or "unreachable" — not memory the coordinator spends.
func TestOversizedWorkerReplies(t *testing.T) {
	_, ok := startWorker(t, "w1")

	_, coordTS := startCoordinator(t, Config{Workers: []Worker{ok, oversizedWorker(t, "/v1/docs")}})
	status, raw := httpDo(t, "GET", coordTS.URL+"/v1/docs", "")
	var listing struct {
		WorkerErrors map[string]string `json:"worker_errors"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &listing) != nil {
		t.Fatalf("GET /v1/docs: %d %.200s", status, raw)
	}
	if e := listing.WorkerErrors["big"]; !strings.Contains(e, "exceeds") || len(listing.WorkerErrors) != 1 {
		t.Errorf("oversized listing: worker_errors %v, want big's alone", listing.WorkerErrors)
	}

	_, coordTS = startCoordinator(t, Config{Workers: []Worker{ok, oversizedWorker(t, "/v1/healthz")}})
	status, raw = httpDo(t, "GET", coordTS.URL+"/v1/healthz", "")
	var health struct {
		Status  string         `json:"status"`
		Workers []workerHealth `json:"workers"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &health) != nil || len(health.Workers) != 2 {
		t.Fatalf("GET /v1/healthz: %d %.200s", status, raw)
	}
	if health.Status != "degraded" || health.Workers[0].Status != "ok" || health.Workers[1].Status != "unreachable" {
		t.Errorf("oversized health body: %s", raw)
	}
}
