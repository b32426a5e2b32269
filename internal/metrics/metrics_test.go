package metrics

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("ncq_test_total", "A test counter.", "route", "status")
	c.With("/v1/query", "200").Add(3)
	c.With("/v1/query", "404").Inc()
	g := reg.Gauge("ncq_test_depth", "A test gauge.")
	g.Set(7)
	g.Dec()
	reg.GaugeFunc("ncq_test_sampled", "A sampled gauge.", func() float64 { return 2.5 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP ncq_test_total A test counter.",
		"# TYPE ncq_test_total counter",
		`ncq_test_total{route="/v1/query",status="200"} 3`,
		`ncq_test_total{route="/v1/query",status="404"} 1`,
		"# TYPE ncq_test_depth gauge",
		"ncq_test_depth 6",
		"ncq_test_sampled 2.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterNeverDecreases(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ncq_mono_total", "x")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter accepted a negative delta: %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("ncq_test_seconds", "A test histogram.",
		[]float64{0.1, 1}, "route")
	s := h.With("/v2/query")
	s.Observe(0.05) // bucket le=0.1
	s.Observe(0.5)  // bucket le=1
	s.Observe(0.1)  // boundary lands in le=0.1
	s.Observe(3)    // +Inf only

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE ncq_test_seconds histogram",
		`ncq_test_seconds_bucket{route="/v2/query",le="0.1"} 2`,
		`ncq_test_seconds_bucket{route="/v2/query",le="1"} 3`,
		`ncq_test_seconds_bucket{route="/v2/query",le="+Inf"} 4`,
		`ncq_test_seconds_sum{route="/v2/query"} 3.65`,
		`ncq_test_seconds_count{route="/v2/query"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("ncq_esc_total", "x", "v").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `ncq_esc_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("escaping: got\n%s\nwant a line %q", sb.String(), want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ncq_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Gauge("ncq_dup_total", "y")
}

func TestLabelArityPanics(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("ncq_arity_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("label arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

// TestInstrument pins the middleware contract: per-route series, a log
// line carrying status, fingerprint and cache disposition, and Flush
// forwarding through the recorder.
func TestInstrument(t *testing.T) {
	reg := NewRegistry()
	httpm := NewHTTP(reg)

	var logs strings.Builder
	logger := slog.New(slog.NewTextHandler(&logs, nil))

	flushed := false
	h := httpm.Instrument("/v1/test", logger, false,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			SetFingerprint(r.Context(), "doc=\"x\" terms=[a]")
			w.Header().Set("X-NCQ-Cache", "hit")
			w.WriteHeader(http.StatusTeapot)
			w.Write([]byte("body"))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
				flushed = true
			}
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/test", nil))

	if !flushed {
		t.Error("recorder does not expose http.Flusher")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `ncq_http_requests_total{route="/v1/test",status="418"} 1`) {
		t.Errorf("request counter missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `ncq_http_request_duration_seconds_count{route="/v1/test"} 1`) {
		t.Errorf("duration histogram missing:\n%s", sb.String())
	}
	line := logs.String()
	for _, want := range []string{"msg=request", "route=/v1/test", "status=418", "cache=hit", "query_fp=", "level=WARN"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
}

// Quiet routes log at Debug: invisible at the default Info level.
func TestInstrumentQuiet(t *testing.T) {
	reg := NewRegistry()
	httpm := NewHTTP(reg)
	var logs strings.Builder
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	h := httpm.Instrument("/v1/healthz", logger, true,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if logs.Len() != 0 {
		t.Errorf("quiet route logged at Info: %s", logs.String())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `ncq_http_requests_total{route="/v1/healthz",status="200"} 1`) {
		t.Error("quiet route still counts")
	}
}

// SetFingerprint outside an instrumented request is a safe no-op.
func TestSetFingerprintNoContext(t *testing.T) {
	SetFingerprint(context.Background(), "anything")
}
