package server

// The query front end: the one POST /v2/query handler of the system.
// What a client can observe about the route that does not depend on
// where the answer is computed lives here — the plain, "batch" and
// ?stream=1 forms (v2.go, stream.go), the result cache (run.go), the
// admission gate, the counters, the error→status mapping — and runs
// against a Backend: a node's corpus, or a coordinator's scatter.

import (
	"context"
	"iter"
	"net/http"
	"sync/atomic"
	"time"

	"ncq"
	"ncq/internal/admission"
	"ncq/internal/cache"
	"ncq/internal/metrics"
	"ncq/internal/wire"
)

// Backend is what the front end executes a request against: a node's
// *ncq.Corpus, or internal/cluster's Coordinator.
type Backend interface {
	// LinesWithStats answers a request: its ranked meets, each as its
	// NDJSON line, and its counters (ncq.Corpus.LinesWithStats). A
	// stream writes the lines as they come; a page is the same lines
	// drained (wire.EncodeResult).
	LinesWithStats(ctx context.Context, req ncq.Request) (iter.Seq2[[]byte, error], *ncq.StreamStats)

	// Generation stamps the state answers are currently computed
	// against — a corpus counts its mutations, a coordinator hashes its
	// workers' generation vector. Parallelism is the width of the
	// fan-out, which is also how many items of a batch run at once.
	Generation() uint64
	Parallelism() int
}

// FrontConfig sizes a front end: what server.With* and cluster.Config
// say about the query route.
type FrontConfig struct {
	NodeName    string // identity in NDJSON stream headers
	CacheBytes  int64  // result cache budget; 0 disables caching
	MaxInFlight int    // admission gate (admission.New); <= 0 disables it
	MaxQueue    int
	QueueWait   time.Duration
}

// Front serves POST /v2/query against one Backend. Create one with
// NewFront and mount Handler. All methods are safe for concurrent use.
type Front struct {
	backend  Backend
	nodeName string
	cache    *cache.LRU
	limiter  *admission.Limiter

	queries   atomic.Uint64 // queries that reached execution (batch items included)
	batches   atomic.Uint64 // "batch" requests accepted
	mutations atomic.Uint64 // document PUT/DELETE the role applied or routed

	queriesInflight *metrics.Gauge
	streamsInflight *metrics.Gauge
	streamLines     *metrics.Counter
	streamBytes     *metrics.Counter
	vagueRequests   *metrics.Counter
	vagueRelax      *metrics.Histogram
}

// NewFront builds the front end of backend and registers its metric
// families on reg: counters the front end already keeps (traffic
// totals, cache statistics, admission outcomes) are sampled at
// exposition time instead of being double-booked, per-request series
// (stream accounting, in-flight gauges) are live metric objects.
func NewFront(backend Backend, reg *metrics.Registry, cfg FrontConfig) *Front {
	f := &Front{
		backend:  backend,
		nodeName: cfg.NodeName,
		cache:    cache.New(cfg.CacheBytes),
		limiter:  admission.New(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
	}
	f.queriesInflight = reg.Gauge("ncq_queries_inflight",
		"Query requests currently admitted and executing (including streams).")
	f.streamsInflight = reg.Gauge("ncq_streams_inflight",
		"NDJSON query streams currently open.")
	f.streamLines = reg.Counter("ncq_stream_lines_total",
		"NDJSON lines written across all query streams (header, meet, error and trailer records).")
	f.streamBytes = reg.Counter("ncq_stream_bytes_total",
		"Bytes written across all NDJSON query streams, newlines included.")
	f.vagueRequests = reg.Counter("ncq_vague_requests_total",
		"Term queries executed in the vague-constraints mode (cache hits included).")
	f.vagueRelax = reg.Histogram("ncq_vague_relaxations_total",
		"Relaxed answers produced by vague queries, by structural slack used (cache misses only).",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16})
	reg.CounterFunc("ncq_queries_total",
		"Queries that reached execution, batch items included.",
		func() float64 { return float64(f.queries.Load()) })
	reg.CounterFunc("ncq_batches_total",
		"Batch requests accepted.",
		func() float64 { return float64(f.batches.Load()) })
	reg.CounterFunc("ncq_mutations_total",
		"Document PUT/DELETE operations that changed the corpus.",
		func() float64 { return float64(f.mutations.Load()) })
	reg.GaugeFunc("ncq_pool_depth",
		"Width of the query fan-out: a node's worker pool, a coordinator's configured workers.",
		func() float64 { return float64(backend.Parallelism()) })
	f.cache.Register(reg)
	f.limiter.Register(reg)
	return f
}

// Handler returns the route's handler behind the admission gate
// (wire.Admit): saturation answers 429 + Retry-After before any body
// is decoded or any backend touched. Only this route is gated: document
// mutations and introspection must stay reachable on a saturated
// process, or operators lose the tools to diagnose the saturation.
func (f *Front) Handler() http.Handler {
	return wire.Admit(f.limiter, f.queriesInflight, http.HandlerFunc(f.handleQuery))
}

// Limiter returns the admission gate, for a test to hold a slot.
func (f *Front) Limiter() *admission.Limiter { return f.limiter }

// Mutated records a document mutation the role applied or routed and
// drops every cached result: results keyed by older generations can
// never be served again (the generation is part of the cache key), so
// the purge is purely about returning memory early.
func (f *Front) Mutated() {
	f.mutations.Add(1)
	f.cache.Purge()
}

// FrontStats is the front end's share of a role's /v1/stats.
type FrontStats struct {
	Queries   uint64          `json:"queries"`
	Batches   uint64          `json:"batches"`
	Mutations uint64          `json:"mutations"`
	Cache     cache.Stats     `json:"cache"`
	Admission admission.Stats `json:"admission"`
}

// Stats samples the traffic, cache and admission counters.
func (f *Front) Stats() FrontStats {
	return FrontStats{Queries: f.queries.Load(), Batches: f.batches.Load(), Mutations: f.mutations.Load(),
		Cache: f.cache.Stats(), Admission: f.limiter.Stats()}
}
