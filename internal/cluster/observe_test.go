package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeWorker serves a fixed status for every streaming query, counting
// attempts — a stand-in for a saturated or broken worker.
func fakeWorker(tb testing.TB, name string, status int, hdr map[string]string, body string) (Worker, *atomic.Int64) {
	tb.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/query" {
			http.NotFound(w, r)
			return
		}
		attempts.Add(1)
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	tb.Cleanup(ts.Close)
	return Worker{Name: name, URL: ts.URL}, &attempts
}

// TestWorker429RelayedNotRetried pins the backpressure contract: a
// worker shedding load with 429 is a deterministic answer for this
// moment — the coordinator relays the status and the worker's
// Retry-After hint verbatim and never retries (a retry would defeat
// the worker's load shedding exactly when it matters most).
func TestWorker429RelayedNotRetried(t *testing.T) {
	wk, attempts := fakeWorker(t, "w1", http.StatusTooManyRequests,
		map[string]string{"Retry-After": "7"}, `{"error":"server saturated; retry after 7 second(s)"}`)
	_, ts := startCoordinator(t, Config{Workers: []Worker{wk}})

	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"terms":["Bit"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429 relayed", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want the worker's \"7\" relayed", ra)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("worker saw %d attempts, want exactly 1 (429 must not be retried)", n)
	}
}

// A worker 5xx, by contrast, IS retried, once — the twin of the 429
// contract above.
func TestWorker5xxRetried(t *testing.T) {
	wk, attempts := fakeWorker(t, "w1", http.StatusInternalServerError,
		nil, `{"error":"boom"}`)
	_, ts := startCoordinator(t, Config{Workers: []Worker{wk}})

	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"terms":["Bit"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("worker saw %d attempts, want 2 (initial + 1 retry)", n)
	}
}

// TestCoordinatorMetrics pins the coordinator's scatter telemetry:
// per-worker stream-open latency and per-worker error counters by
// kind, exposed at /v1/metrics.
func TestCoordinatorMetrics(t *testing.T) {
	srv, wk := startWorker(t, "w1")
	addDoc(t, srv, "bib", `<bib><book><author>Bit</author><year>1999</year></book></bib>`)
	bad, _ := fakeWorker(t, "w2", http.StatusInternalServerError, nil, `{"error":"boom"}`)
	_, ts := startCoordinator(t, Config{Workers: []Worker{wk, bad}})

	// allow_partial survives w2's failure, so both the success and the
	// error leg of the scatter are exercised by one query.
	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"terms":["Bit","1999"],"allow_partial":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d", resp.StatusCode)
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	out := scrape()
	for _, want := range []string{
		`ncq_worker_scatter_duration_seconds_count{worker="w1"} 1`,
		`ncq_worker_errors_total{worker="w2",kind="http_5xx"} 1`,
		`ncq_http_requests_total{route="/v2/query",status="200"} 1`,
		"ncq_queries_total 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("coordinator metrics missing %q:\n%.2000s", want, out)
		}
	}

	// The query route's own families are the front end's, so a
	// coordinator counts what a node counts: one streamed, one batch and
	// one vague request move all four off zero.
	for _, rq := range []struct{ path, body string }{
		{"/v2/query?stream=1", `{"terms":["Bit","1999"],"allow_partial":true}`},
		{"/v2/query", `{"batch":[{"terms":["Bit"],"allow_partial":true}]}`},
		{"/v2/query", `{"terms":["Bit"],"allow_partial":true,"vague":{"max_slack":1}}`},
	} {
		resp, err := http.Post(ts.URL+rq.path, "application/json", strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d", rq.path, rq.body, resp.StatusCode)
		}
	}
	out = scrape()
	for _, name := range []string{"ncq_stream_lines_total", "ncq_stream_bytes_total", "ncq_batches_total", "ncq_vague_requests_total"} {
		var v float64
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				fmt.Sscan(rest, &v)
			}
		}
		if v == 0 {
			t.Errorf("coordinator metric %s is absent or zero after a streamed, a batch and a vague request", name)
		}
	}
}

// TestCoordinatorAdmission429 pins the coordinator's own admission
// gate: saturation answers 429 + Retry-After before any worker
// connection is opened.
func TestCoordinatorAdmission429(t *testing.T) {
	wk, attempts := fakeWorker(t, "w1", http.StatusOK, nil, "")
	c, ts := startCoordinator(t, Config{Workers: []Worker{wk}, MaxInFlight: 1})

	release, err := c.front.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"terms":["Bit"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if n := attempts.Load(); n != 0 {
		t.Errorf("worker saw %d attempts; a shed request must not reach workers", n)
	}
}
