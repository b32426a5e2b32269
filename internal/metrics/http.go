package metrics

// The HTTP serving middleware shared by the single-node server and the
// cluster coordinator: one wrapper per route that measures latency into
// a per-route histogram, counts requests by (route, status), and emits
// one slog request log line per request — method, route, status,
// duration, response bytes, the query fingerprint when a handler
// recorded one, and the cache disposition from the X-NCQ-Cache header
// the handlers already set.

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// HTTP bundles the per-route serving metric families.
type HTTP struct {
	// Requests counts completed requests: ncq_http_requests_total{route,status}.
	Requests *CounterVec
	// Duration observes wall time: ncq_http_request_duration_seconds{route}.
	Duration *HistogramVec
}

// NewHTTP registers the serving families on reg.
func NewHTTP(reg *Registry) *HTTP {
	return &HTTP{
		Requests: reg.CounterVec("ncq_http_requests_total",
			"Completed HTTP requests by route and status code.", "route", "status"),
		Duration: reg.HistogramVec("ncq_http_request_duration_seconds",
			"HTTP request wall time in seconds by route.", nil, "route"),
	}
}

// requestInfo is the per-request scratch the middleware places in the
// context so handlers deep in the execution path can annotate the
// request log line. Handler and middleware run on one goroutine; no
// locking needed.
type requestInfo struct {
	fingerprint uint64
	hasFP       bool
}

type requestInfoKey struct{}

// SetFingerprint records the canonical-request fingerprint on the
// request's log line: an FNV-64a hash of ncq.Request.Canonical(), so
// operators can group log lines by logical query — "which query is
// slow / hammering the cache" — without the log carrying the terms
// themselves. A no-op outside an instrumented request.
func SetFingerprint(ctx context.Context, canonical string) {
	ri, ok := ctx.Value(requestInfoKey{}).(*requestInfo)
	if !ok {
		return
	}
	h := uint64(14695981039346656037) // FNV-64a over the string, without copying it
	for i := 0; i < len(canonical); i++ {
		h = (h ^ uint64(canonical[i])) * 1099511628211
	}
	ri.fingerprint, ri.hasFP = h, true
}

// statusRecorder captures the response status and size. It forwards
// Flush, so an NDJSON stream's flushes (wire.StreamWriter decides when)
// reach the connection through the middleware, and Unwrap for
// http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status, r.wrote = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if !r.wrote {
		r.status, r.wrote = http.StatusOK, true
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Instrument wraps a route's handler with metrics and request
// logging. route labels the metric series and the log line — the
// pattern ("/v2/query"), never the raw URL, bounding series
// cardinality. quiet routes (health probes, scrape targets) log at
// Debug so a 5-second poller does not own the log volume; everything
// else logs Info for 2xx/3xx, Warn for 4xx and Error for 5xx.
func (m *HTTP) Instrument(route string, logger *slog.Logger, quiet bool, next http.Handler) http.Handler {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ri := &requestInfo{}
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri)))
		elapsed := time.Since(start)

		m.Duration.With(route).Observe(elapsed.Seconds())
		m.Requests.With(route, strconv.Itoa(rec.status)).Inc()

		level := slog.LevelInfo
		switch {
		case quiet:
			level = slog.LevelDebug
		case rec.status >= 500:
			level = slog.LevelError
		case rec.status >= 400:
			level = slog.LevelWarn
		}
		if !logger.Enabled(r.Context(), level) {
			return
		}
		attrs := make([]slog.Attr, 0, 8)
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed),
			slog.Int64("bytes", rec.bytes))
		if ri.hasFP {
			attrs = append(attrs, slog.String("query_fp", strconv.FormatUint(ri.fingerprint, 16)))
		}
		if c := rec.Header().Get("X-Ncq-Cache"); c != "" { // X-NCQ-Cache, spelled canonically: Get allocates any other spelling
			attrs = append(attrs, slog.String("cache", c))
		}
		logger.LogAttrs(r.Context(), level, "request", attrs...)
	})
}
