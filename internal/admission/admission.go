// Package admission implements load shedding for the ncqd query path:
// a concurrency limiter with a bounded wait queue that rejects excess
// work immediately instead of letting it pile up in front of the
// worker pool.
//
// The failure mode it prevents is latency collapse: without a limit, a
// burst beyond the corpus fan-out's capacity queues inside the HTTP
// server, every queued request holds its connection and its decoded
// body, service time grows without bound, and by the time a request
// reaches execution its client has usually given up — the server does
// all the work and delivers none of it. The limiter caps what executes
// concurrently, lets a small configurable backlog absorb jitter, and
// answers everything beyond that with an immediate "try later" — which
// the HTTP layer maps to 429 with a Retry-After hint. Rejecting in
// microseconds is what keeps the accepted requests fast.
package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ncq/internal/metrics"
)

// ErrSaturated is returned by Acquire when the limiter's concurrency
// slots and wait queue are both full, or the queue wait expired. The
// HTTP layer maps it to 429 Too Many Requests with a Retry-After hint.
var ErrSaturated = errors.New("admission: server saturated")

// Limiter bounds concurrent executions. A nil *Limiter is valid and
// admits everything — the "admission control off" configuration.
type Limiter struct {
	slots    chan struct{} // filled = executing
	maxQueue int64
	wait     time.Duration

	queued   atomic.Int64
	admitted atomic.Uint64
	rejected atomic.Uint64
}

// New returns a limiter admitting up to maxConcurrent simultaneous
// executions, with up to maxQueue further acquisitions allowed to wait
// up to wait for a slot before being rejected. maxConcurrent <= 0
// returns nil: admission control disabled.
func New(maxConcurrent, maxQueue int, wait time.Duration) *Limiter {
	if maxConcurrent <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	if wait < 0 {
		wait = 0
	}
	return &Limiter{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
		wait:     wait,
	}
}

// Acquire claims an execution slot, waiting in the bounded queue when
// none is free. It returns a release closure (idempotent, safe to call
// once more from a defer) on success; ErrSaturated when the queue is
// full or the wait expired; or ctx.Err() when the caller gave up
// first. On a nil limiter it always succeeds.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	if l == nil {
		return func() {}, nil
	}
	select {
	case l.slots <- struct{}{}:
		return l.grant(), nil
	default:
	}
	// No free slot: join the queue if it has room.
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		l.rejected.Add(1)
		return nil, ErrSaturated
	}
	defer l.queued.Add(-1)
	if l.wait <= 0 {
		l.rejected.Add(1)
		return nil, ErrSaturated
	}
	timer := time.NewTimer(l.wait)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		return l.grant(), nil
	case <-timer.C:
		l.rejected.Add(1)
		return nil, ErrSaturated
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *Limiter) grant() func() {
	l.admitted.Add(1)
	var once sync.Once
	return func() { once.Do(func() { <-l.slots }) }
}

// RetryAfterSeconds is the Retry-After hint for a rejected request:
// the queue wait rounded up to whole seconds, at least 1 — by then at
// least one full wait window has drained.
func (l *Limiter) RetryAfterSeconds() int {
	if l == nil {
		return 1
	}
	secs := int((l.wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Stats is a point-in-time snapshot of the limiter.
type Stats struct {
	InFlight      int    `json:"in_flight"`      // executions holding a slot
	Queued        int    `json:"queued"`         // acquisitions waiting for a slot
	MaxConcurrent int    `json:"max_concurrent"` // slot capacity
	MaxQueue      int    `json:"max_queue"`      // queue capacity
	Admitted      uint64 `json:"admitted"`       // total acquisitions granted
	Rejected      uint64 `json:"rejected"`       // total ErrSaturated rejections
}

// Stats returns a snapshot; the zero Stats on a nil limiter.
func (l *Limiter) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return Stats{
		InFlight:      len(l.slots),
		Queued:        int(l.queued.Load()),
		MaxConcurrent: cap(l.slots),
		MaxQueue:      int(l.maxQueue),
		Admitted:      l.admitted.Load(),
		Rejected:      l.rejected.Load(),
	}
}

// Register exposes the limiter's state on reg as the ncq_admission_*
// series, sampled at exposition time; a nil limiter reports zeros.
func (l *Limiter) Register(reg *metrics.Registry) {
	for _, m := range []struct {
		add        func(name, help string, fn func() float64)
		name, help string
		value      func(Stats) float64
	}{
		{reg.GaugeFunc, "ncq_admission_inflight", "Executions currently holding an admission slot; 0 when admission control is off.",
			func(st Stats) float64 { return float64(st.InFlight) }},
		{reg.GaugeFunc, "ncq_admission_queued", "Acquisitions currently waiting for an admission slot.",
			func(st Stats) float64 { return float64(st.Queued) }},
		{reg.GaugeFunc, "ncq_admission_capacity", "Configured admission concurrency limit; 0 when admission control is off.",
			func(st Stats) float64 { return float64(st.MaxConcurrent) }},
		{reg.CounterFunc, "ncq_admission_admitted_total", "Query requests granted an admission slot.",
			func(st Stats) float64 { return float64(st.Admitted) }},
		{reg.CounterFunc, "ncq_admission_rejected_total", "Query requests shed with 429 because slots and queue were full.",
			func(st Stats) float64 { return float64(st.Rejected) }},
	} {
		m.add(m.name, m.help, func() float64 { return m.value(l.Stats()) })
	}
}
