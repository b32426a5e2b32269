package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ncq"
	"ncq/internal/admission"
	"ncq/internal/cache"
	"ncq/internal/metrics"
	"ncq/internal/wire"
)

const (
	defaultWorkerTimeout = 30 * time.Second
	defaultRetries       = 1
	defaultCacheBytes    = 64 << 20
	defaultPollInterval  = 2 * time.Second
)

// Config configures a Coordinator.
type Config struct {
	// NodeName is the coordinator's identity on /v1/healthz, /v1/stats
	// and its own stream headers. Default "ncqd".
	NodeName string

	// Workers is the cluster membership. Placement and scatter targets
	// derive from it; it is fixed for the coordinator's lifetime.
	Workers []Worker

	// WorkerTimeout bounds every call to a worker — for a streamed
	// query, the whole stream. Default 30s.
	WorkerTimeout time.Duration

	// Retries is how many times an idempotent read is re-attempted
	// against a worker after a transport error or 5xx before the
	// failure policy applies. Mutations are never retried. Default 1.
	Retries int

	// CacheBytes bounds the coordinator's result cache; 0 disables it.
	CacheBytes int64

	// CacheTTL expires cached results by age; 0 means no expiry.
	CacheTTL time.Duration

	// PollInterval is how often Poll refreshes the tracked generation
	// vector from worker health checks, bounding how long a mutation
	// applied directly to a worker (bypassing the coordinator) can keep
	// serving cached coordinator results. Default 2s.
	PollInterval time.Duration

	// Logger receives request logs and worker-failure warnings; nil
	// disables logging.
	Logger *slog.Logger

	// MaxInFlight bounds concurrent query execution (admission
	// control): beyond it up to MaxQueue requests wait up to QueueWait
	// for a slot, and the rest are answered 429 with a Retry-After
	// hint. <= 0 (the default) disables admission control.
	MaxInFlight int
	MaxQueue    int
	QueueWait   time.Duration
}

// Coordinator fronts a cluster of worker nodes: it places documents by
// consistent hashing, scatter-gathers queries over the workers'
// NDJSON streams, and serves the same /v2/query and /v1/docs surface
// as a single node. Create one with New and mount Handler.
type Coordinator struct {
	cfg     config
	ring    *Ring
	workers []Worker
	byName  map[string]Worker
	client  *http.Client
	cache   *cache.LRU
	mux     *http.ServeMux
	started time.Time
	logger  *slog.Logger
	limiter *admission.Limiter

	queries   atomic.Uint64
	mutations atomic.Uint64

	// Observability (observe.go); reg is per-instance like the
	// single-node server's.
	reg             *metrics.Registry
	httpm           *metrics.HTTP
	queriesInflight *metrics.Gauge
	streamsInflight *metrics.Gauge
	scatterDur      *metrics.HistogramVec
	workerErrs      *metrics.CounterVec

	mu   sync.Mutex
	gens map[string]uint64 // tracked generation per worker
}

// config is Config with the defaults applied.
type config struct {
	Config
	cacheBytes int64
}

// New builds a Coordinator over the configured workers.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: a coordinator needs at least one worker")
	}
	c := &Coordinator{
		cfg:     config{Config: cfg, cacheBytes: cfg.CacheBytes},
		workers: append([]Worker(nil), cfg.Workers...),
		byName:  make(map[string]Worker, len(cfg.Workers)),
		client:  &http.Client{},
		started: time.Now(),
		logger:  cfg.Logger,
		limiter: admission.New(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		reg:     metrics.NewRegistry(),
		gens:    make(map[string]uint64, len(cfg.Workers)),
	}
	if c.cfg.NodeName == "" {
		c.cfg.NodeName = "ncqd"
	}
	if c.cfg.WorkerTimeout <= 0 {
		c.cfg.WorkerTimeout = defaultWorkerTimeout
	}
	if c.cfg.Retries < 0 {
		c.cfg.Retries = defaultRetries
	}
	if c.cfg.PollInterval <= 0 {
		c.cfg.PollInterval = defaultPollInterval
	}
	names := make([]string, 0, len(c.workers))
	for _, w := range c.workers {
		if w.Name == "" || w.URL == "" {
			return nil, fmt.Errorf("cluster: worker %+v needs a name and a URL", w)
		}
		if _, dup := c.byName[w.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w.Name)
		}
		c.byName[w.Name] = w
		names = append(names, w.Name)
	}
	c.ring = NewRing(names)
	c.cache = cache.New(c.cfg.cacheBytes, cache.WithTTL(c.cfg.CacheTTL))
	c.initObservability()
	c.routes()
	return c, nil
}

// Metrics returns the coordinator's metric registry — what
// GET /v1/metrics serves.
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// Handler returns the coordinator's root handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Owner returns the worker owning the logical document name.
func (c *Coordinator) Owner(name string) Worker {
	return c.byName[c.ring.Owner(name)]
}

// noteGen records a worker generation observed on a response — a
// stream header, a routed mutation's X-NCQ-Generation, a health poll.
// Generations are monotone per worker, so only advances are kept; a
// slow response carrying an older generation cannot roll the vector
// back.
func (c *Coordinator) noteGen(worker string, gen uint64) {
	c.mu.Lock()
	if gen > c.gens[worker] {
		c.gens[worker] = gen
	}
	c.mu.Unlock()
}

// genHash folds a generation vector into the single uint64 a cursor
// carries: FNV-64a over the sorted name=generation pairs. Any worker
// mutating changes its generation, hence the hash — the distributed
// analogue of the single corpus generation.
func genHash(gens map[string]uint64) uint64 {
	names := make([]string, 0, len(gens))
	for n := range gens {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, gens[n])
	}
	return h.Sum64()
}

// trackedHash returns the hash of the tracked generation vector
// restricted to the given workers — the cache generation key of a
// query over exactly those targets.
func (c *Coordinator) trackedHash(targets []Worker) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gens := make(map[string]uint64, len(targets))
	for _, w := range targets {
		gens[w.Name] = c.gens[w.Name]
	}
	return genHash(gens)
}

// baseOf is the canonical page-independent encoding of the query —
// what the coordinator's cursors are fingerprinted against and its
// cache is keyed by. It reuses ncq.Request.Canonical so equivalent
// spellings (whitespace, option order) share cursors and cache entries
// exactly as on a single node; execution happens on the workers.
func baseOf(q *wire.Query) string {
	r := q.Request()
	r.Cursor = ""
	return r.Canonical()
}

// workerBody renders the query as the body scattered to each worker:
// coordinator-only fields stripped, the page window folded into a
// pushed-down limit. The coordinator handles the offset itself (a
// worker cannot know which of its meets fall in the global window),
// so each worker is asked for the first offset+limit of its own
// ranking — the most any single worker can contribute to the page.
func workerBody(q *wire.Query, offset int) []byte {
	wq := *q
	wq.Cursor = ""
	wq.AllowPartial = false
	if q.Limit > 0 {
		wq.Limit = offset + q.Limit
	}
	body, err := json.Marshal(&wq)
	if err != nil {
		panic(fmt.Sprintf("cluster: marshal worker body: %v", err)) // plain data struct; cannot fail
	}
	return body
}

// targetsFor returns the workers a query scatters to: the owner alone
// for a doc-scoped query, the whole cluster otherwise.
func (c *Coordinator) targetsFor(q *wire.Query) []Worker {
	if q.Doc != "" {
		return []Worker{c.Owner(q.Doc)}
	}
	return c.workers
}

// gather is the result of a scatter: the surviving worker streams as
// merge sources, their aggregated header counters, and the gathered
// generation vector. Close releases every stream.
type gather struct {
	streams   []*workerStream
	sources   []ncq.MeetSource
	total     int
	unmatched int
	gens      map[string]uint64
	hash      uint64

	mu     sync.Mutex
	failed map[string]string // worker -> failure detail (allow_partial)
}

func (g *gather) Close() {
	for _, s := range g.streams {
		s.close()
	}
}

func (g *gather) recordFailure(w Worker, err error) {
	g.mu.Lock()
	g.failed[w.Name] = err.Error()
	g.mu.Unlock()
}

// incomplete reports whether any worker failed (allow_partial mode).
func (g *gather) incomplete() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.failed) > 0
}

func (g *gather) failures() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failed) == 0 {
		return nil
	}
	out := make(map[string]string, len(g.failed))
	for k, v := range g.failed {
		out[k] = v
	}
	return out
}

// scatterQuery opens the query's worker streams in parallel and reads
// every header — totals and generations are known before the first
// merged yield. Worker failures follow the query's policy: strict
// mode aborts on the first failure; allow_partial records it and
// continues with the survivors (failing only when no worker
// survives). A worker answering 4xx is a deterministic request error
// and aborts in either mode.
func (c *Coordinator) scatterQuery(ctx context.Context, q *wire.Query, offset int) (*gather, error) {
	targets := c.targetsFor(q)
	body := workerBody(q, offset)
	streams := make([]*workerStream, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, wk := range targets {
		wg.Add(1)
		go func(i int, wk Worker) {
			defer wg.Done()
			t0 := time.Now()
			streams[i], errs[i] = c.openStream(ctx, wk, body)
			c.observeScatter(wk, time.Since(t0), errs[i])
		}(i, wk)
	}
	wg.Wait()

	g := &gather{
		gens:   make(map[string]uint64, len(targets)),
		failed: make(map[string]string),
	}
	abort := func(err error) (*gather, error) {
		g.Close()
		return nil, err
	}
	var lastErr error
	for i, wk := range targets {
		if err := errs[i]; err != nil {
			var he *workerHTTPError
			if errors.As(err, &he) && he.status < 500 {
				return abort(err) // the request itself is bad; every worker agrees
			}
			if !q.AllowPartial {
				return abort(err)
			}
			g.recordFailure(wk, err)
			lastErr = err
			continue
		}
		ws := streams[i]
		g.streams = append(g.streams, ws)
		g.sources = append(g.sources, ws)
		g.total += ws.header.Total
		g.unmatched += ws.header.Unmatched
		g.gens[wk.Name] = ws.header.Generation
		if q.AllowPartial {
			ws.onFail = func(w Worker, err error) error {
				g.recordFailure(w, err)
				return nil // end this source quietly; the merge continues
			}
		}
	}
	if len(g.streams) == 0 {
		return abort(fmt.Errorf("all %d workers failed: %w", len(targets), lastErr))
	}
	g.hash = genHash(g.gens)
	for w, gen := range g.gens {
		c.noteGen(w, gen)
	}
	return g, nil
}

// errQueryLanguage rejects query-language requests on the coordinator.
var errQueryLanguage = errors.New("query-language requests are not supported in coordinator mode; send \"terms\" requests, or query a worker directly")

// errStaleCluster is the distributed 410: the gathered generation
// vector no longer hashes to what the cursor was stamped with.
var errStaleCluster = fmt.Errorf("ncq: %w: the cluster changed since this cursor was minted", ncq.ErrStaleCursor)

// finish reports what closes an answer, streamed or not, once the
// merge has drained: the degraded state and, for a page the limit cut,
// the cursor of the next one. A partial answer never mints a cursor —
// a page chain is always exact.
func (g *gather) finish(q *wire.Query, base string, offset int) wire.Trailer {
	tr := wire.Trailer{Unmatched: g.unmatched, Incomplete: g.incomplete(), WorkerErrors: g.failures()}
	if q.Limit > 0 && g.total > offset+q.Limit {
		tr.Truncated = true
		if !tr.Incomplete {
			tr.NextCursor = ncq.MintCursor(offset+q.Limit, base, g.hash)
		}
	}
	return tr
}

// runPage executes one term query page: resolve the cursor, serve
// from cache when the tracked generation vector still matches,
// otherwise scatter, verify the cursor against the gathered vector
// (mismatch → ErrStaleCursor, the distributed 410), merge the worker
// streams into the exact global ranking and mint the next cursor.
// The response's Generation is the hash of the generation vector it
// was computed against. Partial results are never cached.
func (c *Coordinator) runPage(ctx context.Context, q *wire.Query) (wire.Response, error) {
	if q.IsQuery() {
		return wire.Response{}, errQueryLanguage
	}
	base := baseOf(q)
	offset, curGen, err := ncq.ResolveCursor(q.Cursor, base)
	if err != nil {
		return wire.Response{}, err
	}
	c.queries.Add(1)
	targets := c.targetsFor(q)
	pageKey := fmt.Sprintf("%s page=%d", base, offset)
	tracked := c.trackedHash(targets)
	if q.Cursor == "" || curGen == tracked {
		if v, ok := c.cache.Get(cache.Key{Gen: tracked, Query: pageKey}); ok {
			resp := v.(wire.Response)
			resp.Cached = true
			return resp, nil
		}
	}
	g, err := c.scatterQuery(ctx, q, offset)
	if err != nil {
		return wire.Response{}, err
	}
	defer g.Close()
	if q.Cursor != "" && curGen != g.hash {
		return wire.Response{}, errStaleCluster
	}
	// The same payload type a single node encodes, so a distributed
	// answer is byte-identical to the answer one node holding the whole
	// corpus would give.
	res := wire.Result{Mode: "terms"}
	for m, err := range ncq.MergeMeets(ctx, g.sources, offset, q.Limit) {
		if err != nil {
			return wire.Response{}, err
		}
		res.Meets = append(res.Meets, m)
	}
	tr := g.finish(q, base, offset)
	if q.Doc != "" {
		// Single-node semantics: the unmatched count is reported for
		// doc-scoped results only (the doc lives wholly on its owner).
		res.Unmatched = tr.Unmatched
	}
	res.Truncated = tr.Truncated
	raw, err := json.Marshal(&res)
	if err != nil {
		return wire.Response{}, fmt.Errorf("encode result: %v", err)
	}
	resp := wire.Response{Generation: g.hash, Truncated: tr.Truncated, NextCursor: tr.NextCursor,
		Incomplete: tr.Incomplete, WorkerErrors: tr.WorkerErrors, Result: raw}
	if !resp.Incomplete {
		c.cache.Put(cache.Key{Gen: g.hash, Query: pageKey}, resp, len(raw))
	}
	return resp, nil
}

// workerHealth is one worker's health as seen by the coordinator.
type workerHealth struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Status     string `json:"status"` // "ok" or "unreachable"
	Generation uint64 `json:"generation,omitempty"`
	Docs       int    `json:"docs,omitempty"`
	Error      string `json:"error,omitempty"`
}

// PollOnce health-checks every worker in parallel, refreshing the
// tracked generation vector from the responses, and returns the
// per-worker view.
func (c *Coordinator) PollOnce(ctx context.Context) []workerHealth {
	out := make([]workerHealth, len(c.workers))
	var wg sync.WaitGroup
	for i, wk := range c.workers {
		wg.Add(1)
		go func(i int, wk Worker) {
			defer wg.Done()
			out[i] = c.pollWorker(ctx, wk)
		}(i, wk)
	}
	wg.Wait()
	return out
}

func (c *Coordinator) pollWorker(ctx context.Context, wk Worker) workerHealth {
	h := workerHealth{Name: wk.Name, URL: wk.URL, Status: "unreachable"}
	wctx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, wk.URL+"/v1/healthz", nil)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	resp, err := c.client.Do(req)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	defer resp.Body.Close()
	var body struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
		Docs       int    `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		h.Error = fmt.Sprintf("health check failed (status %d)", resp.StatusCode)
		return h
	}
	h.Status, h.Generation, h.Docs = "ok", body.Generation, body.Docs
	c.noteGen(wk.Name, body.Generation)
	return h
}

// Poll refreshes the tracked generation vector every PollInterval
// until ctx is cancelled. Run it in a goroutine next to the HTTP
// server; it bounds how stale the coordinator's cache can serve when
// workers are mutated behind its back.
func (c *Coordinator) Poll(ctx context.Context) {
	t := time.NewTicker(c.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.PollOnce(ctx)
		}
	}
}
