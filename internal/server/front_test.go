package server

import (
	"context"
	"errors"
	"iter"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/metrics"
	"ncq/internal/wire"
)

// fakeBackend answers every request with one meet, the stats it
// is told to report, or the error it is told to fail with.
type fakeBackend struct {
	gen   uint64 // Generation()
	stats ncq.StreamStats
	err   error
	runs  int
}

func (b *fakeBackend) LinesWithStats(context.Context, ncq.Request) (iter.Seq2[[]byte, error], *ncq.StreamStats) {
	b.runs++
	stats := b.stats
	return func(yield func([]byte, error) bool) {
		if b.err != nil {
			yield(nil, b.err)
			return
		}
		yield(wire.AppendMeetLine(nil, &ncq.CorpusMeet{Source: "d"}), nil)
	}, &stats
}

func (b *fakeBackend) Generation() uint64 { return b.gen }
func (b *fakeBackend) Parallelism() int   { return 1 }

func postFront(f *Front, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// TestFrontCacheRule pins the one cache rule against a backend whose
// generations the test controls: look up under the backend's
// generation read before executing, store under the generation the
// answer reports, never store an incomplete answer.
func TestFrontCacheRule(t *testing.T) {
	b := &fakeBackend{gen: 7, stats: ncq.StreamStats{Generation: 7, Total: 1}}
	f := NewFront(b, metrics.NewRegistry(), FrontConfig{CacheBytes: 1 << 20})
	cache := func(body string) string { return postFront(f, "/v2/query", body).Header().Get("X-NCQ-Cache") }

	if first, again := cache(`{"terms":["a"]}`), cache(`{"terms":["a"]}`); first != "miss" || again != "hit" || b.runs != 1 {
		t.Errorf("same generation: %s then %s after %d executions, want miss, hit, 1", first, again, b.runs)
	}
	// A mutation got ahead of the request: the answer reports 8 while
	// the lookup still read 7. It must land under 8 — unreachable until
	// the backend says 8 too, and then a hit without another execution.
	b.stats.Generation = 8
	if first, again := cache(`{"terms":["b"]}`), cache(`{"terms":["b"]}`); first != "miss" || again != "miss" {
		t.Errorf("answer ahead of the lookup generation: %s then %s, want two misses", first, again)
	}
	b.gen = 8
	runs := b.runs
	if got := cache(`{"terms":["b"]}`); got != "hit" || b.runs != runs {
		t.Errorf("once the backend reports 8: %s after %d more executions, want a hit and none", got, b.runs-runs)
	}
	b.stats.Incomplete, b.stats.WorkerErrors = true, map[string]string{"w2": "down"}
	if first, again := cache(`{"terms":["c"]}`), cache(`{"terms":["c"]}`); first != "miss" || again != "miss" {
		t.Errorf("incomplete answer: %s then %s, want never cached", first, again)
	}
}

// TestFrontFailureStatus: the handler has no table of its own — the
// shared one, then whatever status the backend's error carries, with
// its Retry-After hint, plain and streamed.
func TestFrontFailureStatus(t *testing.T) {
	b := &fakeBackend{err: &wire.StatusError{Status: http.StatusTooManyRequests, RetryAfter: "7", Err: errors.New("worker w1: saturated")}}
	f := NewFront(b, metrics.NewRegistry(), FrontConfig{})
	for _, path := range []string{"/v2/query", "/v2/query?stream=1"} {
		rec := postFront(f, path, `{"terms":["a"]}`)
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "7" || !strings.Contains(rec.Body.String(), "worker w1: saturated") {
			t.Errorf("%s: %d, Retry-After %q, %s", path, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
	b.err = ncq.ErrStaleCursor
	if rec := postFront(f, "/v2/query", `{"terms":["a"]}`); rec.Code != http.StatusGone {
		t.Errorf("stale cursor: %d, want 410", rec.Code)
	}
	b.err = errors.New("bad pattern")
	if rec := postFront(f, "/v2/query?stream=1", `{"terms":["a"]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("input-driven failure: %d, want 400", rec.Code)
	}
}
