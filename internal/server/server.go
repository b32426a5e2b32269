// Package server exposes nearest concept queries over HTTP/JSON — the
// ncqd daemon's engine room. It wraps a shared ncq.Corpus with a
// result cache and a small REST surface:
//
//	POST   /v2/query       the query endpoint: single doc, whole corpus
//	                       or batch in one schema, with cursor pagination
//	                       and a per-request deadline (v2.go; the
//	                       protocol itself lives in internal/wire),
//	                       asked as "terms" or in the paper's query
//	                       language; ?stream=1 switches to NDJSON —
//	                       one meet per line, the first flushed at once
//	                       and the rest in batches no older than 2 ms,
//	                       plus a trailer record (stream.go)
//	PUT    /v1/docs/{name} load (or replace) a document from an XML body;
//	                       ?shards=K splits it into K parallel shards
//	GET    /v1/docs/{name} inspect a loaded document
//	DELETE /v1/docs/{name} evict a document
//	GET    /v1/docs        list loaded documents
//	GET    /v1/healthz     liveness probe
//	GET    /v1/stats       corpus, cache and traffic counters
//	GET    /v1/metrics     Prometheus text exposition (see observe.go)
//
// The query route is the front end's (front.go: Front, the one
// /v2/query handler of the system) executed against the corpus as its
// Backend; a cluster coordinator mounts the same Front over its
// scatter, so the route behaves one way wherever it lands. Every query
// executes through the unified ncq.Request path (run.go). Query results
// are cached in a byte-bounded LRU — optionally with a TTL — keyed by
// (generation, canonical request); any document mutation bumps the
// generation and purges the cache, so clients never observe stale
// answers. Documents uploaded with ?shards=K are split
// into subtree shards that queries fan out over in parallel while
// clients keep addressing one logical name.
package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ncq"
	"ncq/internal/durable"
	"ncq/internal/metrics"
	"ncq/internal/shard"
	"ncq/internal/wire"
)

const (
	defaultCacheBytes = 64 << 20 // query result cache budget
	defaultMaxBody    = 32 << 20 // XML document uploads
	maxDocNameLen     = 128
	maxShardsParam    = shard.MaxShards // cap on ?shards=K
)

// Server routes HTTP traffic onto a shared corpus. Create one with New
// and mount Handler on an http.Server. All methods are safe for
// concurrent use.
type Server struct {
	corpus  *ncq.Corpus
	cfg     FrontConfig // what the options say about the query route
	front   *Front      // POST /v2/query over corpus
	maxBody int64
	role    string
	logger  *slog.Logger
	docs    durable.Writer // every PUT and DELETE goes through it
	mux     *http.ServeMux
	started time.Time

	// Observability (observe.go). reg is per-instance so multiple
	// servers in one process — httptest fixtures, a worker and a
	// coordinator side by side — never collide on metric names.
	reg   *metrics.Registry
	httpm *metrics.HTTP
}

// Option customises a Server.
type Option func(*Server)

// WithCacheBytes bounds the query result cache by the approximate
// encoded size of the retained results; 0 disables caching.
func WithCacheBytes(n int64) Option {
	return func(s *Server) { s.cfg.CacheBytes = n }
}

// WithMaxBody bounds the size of uploaded XML documents in bytes.
func WithMaxBody(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithNodeName names this node in /v1/healthz, /v1/stats and NDJSON
// stream headers — the identity a cluster coordinator polls and
// reports per worker. Default "ncqd".
func WithNodeName(name string) Option {
	return func(s *Server) {
		if name != "" {
			s.cfg.NodeName = name
		}
	}
}

// WithRole labels the node's place in a cluster topology ("single",
// "worker", "coordinator") on /v1/healthz and /v1/stats. Purely
// descriptive: a worker serves exactly the same surface as a
// single-node daemon — that symmetry is what makes a remote worker the
// same abstraction as a local corpus member. Default "single".
func WithRole(role string) Option {
	return func(s *Server) {
		if role != "" {
			s.role = role
		}
	}
}

// WithLogger sets the structured logger for request logs. Every
// completed request emits one line (method, route, status, duration,
// bytes, query fingerprint, cache disposition); health and scrape
// probes log at Debug so pollers do not own the log volume. nil (the
// default) disables request logging.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithAdmission bounds concurrent query execution: at most
// maxConcurrent query requests execute at once, up to maxQueue more
// wait up to wait for a slot, and everything beyond that is answered
// 429 with a Retry-After hint instead of queuing in front of the
// worker pool. maxConcurrent <= 0 (the default) disables admission
// control. Only the query route is gated; document mutations and
// introspection stay reachable on a saturated node.
func WithAdmission(maxConcurrent, maxQueue int, wait time.Duration) Option {
	return func(s *Server) {
		s.cfg.MaxInFlight, s.cfg.MaxQueue, s.cfg.QueueWait = maxConcurrent, maxQueue, wait
	}
}

// WithDurability routes every document mutation through store, which
// must manage the same corpus the server serves: a PUT is acknowledged
// only after its snapshots and WAL record are persisted, and a DELETE
// only after its eviction is logged; a write the store cannot persist
// answers 500 and leaves the corpus unchanged. Queries are unaffected —
// they read the in-memory corpus as before.
func WithDurability(store *durable.Store) Option {
	return func(s *Server) { s.docs = store }
}

// New builds a Server around corpus (a fresh empty corpus when nil).
func New(corpus *ncq.Corpus, opts ...Option) *Server {
	if corpus == nil {
		corpus = ncq.NewCorpus()
	}
	s := &Server{
		corpus:  corpus,
		cfg:     FrontConfig{NodeName: "ncqd", CacheBytes: defaultCacheBytes},
		docs:    durable.InMemory(corpus),
		maxBody: defaultMaxBody,
		role:    "single",
		started: time.Now(),
		reg:     metrics.NewRegistry(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.front = NewFront(corpus, s.reg, s.cfg)
	s.initObservability()
	mux := http.NewServeMux()
	// handle wraps every route with the metrics + request-log
	// middleware; route is the pattern's path, which labels the metric
	// series and log lines (never the raw URL — bounded cardinality).
	handle := func(pattern, route string, quiet bool, h http.Handler) {
		mux.Handle(pattern, s.httpm.Instrument(route, s.logger, quiet, h))
	}
	handle("POST /v2/query", "/v2/query", false, s.front.Handler())
	handle("PUT /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(s.handlePutDoc))
	handle("GET /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(s.handleGetDoc))
	handle("DELETE /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(s.handleDeleteDoc))
	handle("GET /v1/docs", "/v1/docs", false, http.HandlerFunc(s.handleListDocs))
	handle("GET /v1/healthz", "/v1/healthz", true, http.HandlerFunc(s.handleHealthz))
	handle("GET /v1/stats", "/v1/stats", true, http.HandlerFunc(s.handleStats))
	handle("GET /v1/metrics", "/v1/metrics", true, s.reg.Handler())
	s.mux = mux
	return s
}

// Corpus returns the server's underlying corpus, e.g. for preloading
// documents before serving.
func (s *Server) Corpus() *ncq.Corpus { return s.corpus }

// Handler returns the root handler for mounting on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metric registry — what GET /v1/metrics
// serves.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// stampGeneration reports the node's current corpus generation in the
// X-NCQ-Generation response header. Mutation responses carry it so a
// routing coordinator can update its generation vector from the
// response it already has instead of a follow-up poll.
func (s *Server) stampGeneration(w http.ResponseWriter) {
	w.Header().Set("X-NCQ-Generation", strconv.FormatUint(s.corpus.Generation(), 10))
}

// handleHealthz reports liveness plus the node identity a cluster
// coordinator health-checks: who the node is, its role, and the corpus
// generation its answers are currently computed against.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"node":       s.cfg.NodeName,
		"role":       s.role,
		"generation": s.corpus.Generation(),
		"docs":       s.corpus.Len(),
	})
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	Node          string  `json:"node"`
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Generation    uint64  `json:"generation"`
	Workers       int     `json:"workers"` // query fan-out pool depth
	Docs          int     `json:"docs"`
	TotalShards   int     `json:"total_shards"`
	TotalNodes    int     `json:"total_nodes"`
	TotalMemBytes int     `json:"total_mem_bytes"`
	FrontStats            // queries, batches, mutations, cache, admission
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Node:          s.cfg.NodeName,
		Role:          s.role,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Generation:    s.corpus.Generation(),
		Workers:       s.corpus.Parallelism(),
		FrontStats:    s.front.Stats(),
	}
	for _, name := range s.corpus.Names() {
		st, shards, ok := s.corpus.MemberStats(name)
		if !ok {
			continue // removed between Names and MemberStats; skip
		}
		resp.Docs++
		resp.TotalShards += shards
		resp.TotalNodes += st.Nodes
		resp.TotalMemBytes += st.MemBytes
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}
