package cluster

// Coordinator observability. Like the single-node server
// (internal/server/observe.go): a per-instance registry served at
// GET /v1/metrics and one request-log line per request; the query
// route's families and its admission gate are the front end's, on the
// same registry. What is the coordinator's own is its scatter edge —
// per-worker stream-open latency and a per-worker error counter by
// kind — because in a cluster the first question behind a latency
// regression is "which worker".

import (
	"context"
	"errors"
	"time"

	"ncq/internal/metrics"
)

// initObservability registers the coordinator's metric families.
// Called once from New, before the front end and the routes.
func (c *Coordinator) initObservability() {
	reg := c.reg
	c.httpm = metrics.NewHTTP(reg)

	c.scatterDur = reg.HistogramVec("ncq_worker_scatter_duration_seconds",
		"Time from scatter to a worker's stream header (its counters and first answer ready), per worker.",
		nil, "worker")
	c.workerErrs = reg.CounterVec("ncq_worker_errors_total",
		"Worker failures during scatter, by worker and kind (http_4xx, http_5xx, timeout, transport).",
		"worker", "kind")

	reg.GaugeFunc("ncq_uptime_seconds",
		"Seconds since the coordinator was constructed.",
		func() float64 { return time.Since(c.started).Seconds() })
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
	switch st := workerStatus(err); {
	case st >= 500:
		return "http_5xx"
	case st != 0:
		return "http_4xx"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "transport"
	}
}
