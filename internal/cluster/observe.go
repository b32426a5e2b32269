package cluster

// Coordinator observability. Mirrors the single-node server
// (internal/server/observe.go): a per-instance registry served at
// GET /v1/metrics, one request-log line per request, and the
// admission gate (wire.Admit) on the query route only — saturation
// answers 429 + Retry-After before any worker connection is opened.
// On top of that the
// coordinator tracks its scatter edge — per-worker stream-open latency
// and a per-worker error counter by kind — because in a cluster the
// first question behind a latency regression is "which worker".

import (
	"context"
	"errors"
	"time"

	"ncq/internal/metrics"
)

// initObservability registers the coordinator's metric families.
// Called once from New, before routes.
func (c *Coordinator) initObservability() {
	reg := c.reg
	c.httpm = metrics.NewHTTP(reg)

	c.queriesInflight = reg.Gauge("ncq_queries_inflight",
		"Query requests currently admitted and executing (including streams).")
	c.streamsInflight = reg.Gauge("ncq_streams_inflight",
		"Merged NDJSON query streams currently open to clients.")
	c.scatterDur = reg.HistogramVec("ncq_worker_scatter_duration_seconds",
		"Time from scatter to a worker's stream header (its counters and first answer ready), per worker.",
		nil, "worker")
	c.workerErrs = reg.CounterVec("ncq_worker_errors_total",
		"Worker failures during scatter, by worker and kind (http_4xx, http_5xx, timeout, transport).",
		"worker", "kind")

	reg.CounterFunc("ncq_queries_total",
		"Term queries that reached scatter execution, batch items included.",
		func() float64 { return float64(c.queries.Load()) })
	reg.CounterFunc("ncq_mutations_total",
		"Document mutations routed to ring owners that succeeded.",
		func() float64 { return float64(c.mutations.Load()) })
	reg.GaugeFunc("ncq_pool_depth",
		"Cluster membership: the number of configured workers.",
		func() float64 { return float64(len(c.workers)) })
	reg.GaugeFunc("ncq_uptime_seconds",
		"Seconds since the coordinator was constructed.",
		func() float64 { return time.Since(c.started).Seconds() })

	c.cache.Register(reg)
	c.limiter.Register(reg)
}

// observeScatter records one worker stream-open outcome: the latency
// to its header on success, a per-kind error count on failure — and,
// on failure, one log line naming the worker, since "which worker" is
// the first question a degraded cluster raises.
func (c *Coordinator) observeScatter(wk Worker, elapsed time.Duration, err error) {
	if err == nil {
		c.scatterDur.With(wk.Name).Observe(elapsed.Seconds())
		return
	}
	c.workerErrs.With(wk.Name, errKind(err)).Inc()
	if c.logger != nil {
		c.logger.Warn("worker scatter failed",
			"worker", wk.Name, "kind", errKind(err),
			"duration", elapsed, "err", err)
	}
}

// errKind buckets a worker failure for ncq_worker_errors_total.
func errKind(err error) string {
	var he *workerHTTPError
	switch {
	case errors.As(err, &he):
		if he.status < 500 {
			return "http_4xx"
		}
		return "http_5xx"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "transport"
	}
}
