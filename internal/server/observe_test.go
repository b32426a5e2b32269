package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/fulltext"
	"ncq/internal/metrics"
)

const queryBody = `{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true}`

// TestMetricsEndpoint pins the /v1/metrics contract: Prometheus text
// exposition covering route latency, request counts, cache hit ratio,
// pool depth and the traffic totals.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)

	// One miss, one hit: a known cache ratio.
	for i := 0; i < 2; i++ {
		if rec := do(t, s, "POST", "/v2/query", queryBody); rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
	}

	rec := do(t, s, "GET", "/v1/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE ncq_http_request_duration_seconds histogram",
		`ncq_http_request_duration_seconds_count{route="/v2/query"} 2`,
		`ncq_http_requests_total{route="/v2/query",status="200"} 2`,
		`ncq_http_requests_total{route="/v1/docs/{name}",status="201"} 3`,
		"ncq_queries_total 2",
		"ncq_mutations_total 3",
		"ncq_cache_hits_total 1",
		"ncq_cache_misses_total 1",
		"ncq_cache_hit_ratio 0.5",
		"# TYPE ncq_pool_depth gauge",
		"ncq_admission_capacity 0", // admission off by default
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(out, "ncq_pool_depth ") {
		t.Error("exposition missing ncq_pool_depth sample")
	}

	// The scrape itself is counted on the next scrape.
	rec = do(t, s, "GET", "/v1/metrics", "")
	if !strings.Contains(rec.Body.String(), `ncq_http_requests_total{route="/v1/metrics",status="200"} 1`) {
		t.Error("scrape route not instrumented")
	}
}

// TestLocateMemoMetrics pins the memo counters' exposition: a streamed
// request bypasses the result cache, so the first locates its two terms
// in the one member it names and the repeat reads both from the memo.
func TestLocateMemoMetrics(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	hits, misses := fulltext.MemoCounts()
	for i := 0; i < 2; i++ {
		if rec := do(t, s, "POST", "/v2/query?stream=1", queryBody); rec.Code != http.StatusOK {
			t.Fatalf("stream %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	h, m := fulltext.MemoCounts()
	if h-hits != 2 || m-misses != 2 {
		t.Errorf("counted %d memo hits and %d misses, want 2 and 2", h-hits, m-misses)
	}
	out := do(t, s, "GET", "/v1/metrics", "").Body.String()
	for _, want := range []string{
		"# TYPE ncq_locate_memo_hits_total counter",
		fmt.Sprintf("ncq_locate_memo_hits_total %d", h),
		fmt.Sprintf("ncq_locate_memo_misses_total %d", m),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPlanMemoMetrics pins the plan memo's counters and its key: two
// streamed requests on the one member they name differ in "within"
// only, which is no part of a plan, so the first compiles the member's
// plan and the second reads it; a restrict pattern is a new shape.
func TestPlanMemoMetrics(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	hits, misses := ncq.PlanMemoCounts()
	for _, body := range []string{
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true,"within":50}`,
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true,"within":51}`,
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true,"restrict":["//article"]}`,
	} {
		if rec := do(t, s, "POST", "/v2/query?stream=1", body); rec.Code != http.StatusOK {
			t.Fatalf("stream %s: %d %s", body, rec.Code, rec.Body)
		}
	}
	h, m := ncq.PlanMemoCounts()
	if h-hits != 1 || m-misses != 2 {
		t.Errorf("counted %d plan memo hits and %d misses, want 1 and 2", h-hits, m-misses)
	}
	out := do(t, s, "GET", "/v1/metrics", "").Body.String()
	for _, want := range []string{
		"# TYPE ncq_plan_memo_hits_total counter",
		fmt.Sprintf("ncq_plan_memo_hits_total %d", h),
		fmt.Sprintf("ncq_plan_memo_misses_total %d", m),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAdmission429 pins the admission boundary: a saturated server
// answers 429 with a Retry-After hint and a JSON error body, before
// any execution happens, and recovers as soon as capacity frees up.
func TestAdmission429(t *testing.T) {
	s := newTestServer(t, WithAdmission(1, 0, 0))
	loadDocs(t, s)

	// Occupy the single slot directly at the limiter, as a long-running
	// query would.
	release, err := s.front.limiter.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rec := do(t, s, "POST", "/v2/query", queryBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated query: %d %s, want 429", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if body := decode[errorResponse](t, rec); !strings.Contains(body.Error, "saturated") {
		t.Errorf("error body = %q", body.Error)
	}

	// Mutations and introspection stay reachable while saturated.
	if rec := do(t, s, "GET", "/v1/stats", ""); rec.Code != http.StatusOK {
		t.Errorf("stats while saturated: %d", rec.Code)
	}
	if rec := do(t, s, "PUT", "/v1/docs/extra", bibEntry); rec.Code != http.StatusCreated {
		t.Errorf("PUT while saturated: %d %s", rec.Code, rec.Body)
	}

	release()
	if rec := do(t, s, "POST", "/v2/query", queryBody); rec.Code != http.StatusOK {
		t.Errorf("query after release: %d %s", rec.Code, rec.Body)
	}

	rec = do(t, s, "GET", "/v1/metrics", "")
	for _, want := range []string{
		"ncq_admission_capacity 1",
		"ncq_admission_rejected_total 1",
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRequestLog pins the request-log line: one slog record per
// request with route, status and the query fingerprint.
func TestRequestLog(t *testing.T) {
	var logs bytes.Buffer
	s := newTestServer(t, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	loadDocs(t, s)
	logs.Reset() // drop the PUT lines; the query line is under test
	if rec := do(t, s, "POST", "/v2/query", queryBody); rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	line := logs.String()
	for _, want := range []string{"msg=request", "method=POST", "route=/v2/query", "status=200", "query_fp=", "cache=miss"} {
		if !strings.Contains(line, want) {
			t.Errorf("request log missing %q: %s", want, line)
		}
	}
}
