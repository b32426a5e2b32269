package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"ncq"
	"ncq/internal/metrics"
	"ncq/internal/server"
	"ncq/internal/wire"
)

const defaultWorkerTimeout = 30 * time.Second

// Config configures a Coordinator.
type Config struct {
	// NodeName is the coordinator's identity on /v1/healthz, /v1/stats
	// and its own stream headers. Default "ncqd".
	NodeName string

	// Workers is the cluster membership. Placement and scatter targets
	// derive from it; it is fixed for the coordinator's lifetime.
	Workers []Worker

	// WorkerTimeout bounds every attempt of a call to a worker — for a
	// streamed query, the whole stream. Default 30s.
	WorkerTimeout time.Duration

	// CacheBytes bounds the coordinator's result cache; 0 disables it.
	CacheBytes int64

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
// as a single node. The query route is not its own: it mounts the one
// front end of the system (server.Front) and is that front end's
// Backend — ResultsWithStats, Generation and Parallelism below.
// Create one with New and mount Handler.
type Coordinator struct {
	cfg     Config // with the defaults applied
	ring    *Ring
	workers []Worker
	names   []string // worker names, sorted: the order the generation vector hashes in
	byName  map[string]Worker
	client  *http.Client
	front   *server.Front // POST /v2/query over the scatter
	mux     *http.ServeMux
	started time.Time
	logger  *slog.Logger

	// Observability (observe.go); reg is per-instance like the
	// single-node server's, and the front end registers its families on
	// it too.
	reg        *metrics.Registry
	httpm      *metrics.HTTP
	scatterDur *metrics.HistogramVec
	workerErrs *metrics.CounterVec

	mu   sync.Mutex
	gens map[string]uint64 // tracked generation per worker
}

// New builds a Coordinator over the configured workers.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: a coordinator needs at least one worker")
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: append([]Worker(nil), cfg.Workers...),
		byName:  make(map[string]Worker, len(cfg.Workers)),
		client:  &http.Client{},
		started: time.Now(),
		logger:  cfg.Logger,
		reg:     metrics.NewRegistry(),
		gens:    make(map[string]uint64, len(cfg.Workers)),
	}
	if c.cfg.NodeName == "" {
		c.cfg.NodeName = "ncqd"
	}
	if c.cfg.WorkerTimeout <= 0 {
		c.cfg.WorkerTimeout = defaultWorkerTimeout
	}
	for _, w := range c.workers {
		if w.Name == "" || w.URL == "" {
			return nil, fmt.Errorf("cluster: worker %+v needs a name and a URL", w)
		}
		if _, dup := c.byName[w.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w.Name)
		}
		c.byName[w.Name] = w
		c.names = append(c.names, w.Name)
	}
	sort.Strings(c.names)
	c.ring = NewRing(c.names)
	c.initObservability()
	c.front = server.NewFront(c, c.reg, server.FrontConfig{
		NodeName:    c.cfg.NodeName,
		CacheBytes:  c.cfg.CacheBytes,
		MaxInFlight: c.cfg.MaxInFlight, MaxQueue: c.cfg.MaxQueue, QueueWait: c.cfg.QueueWait,
	})
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

// vectorHash folds the cluster's generation vector into the single
// uint64 a cursor, a cache key and a response carry: FNV-64a over the
// name=generation pairs of every worker in name order, each at the
// generation in seen — what a scatter just read off that worker's
// stream header — and at the tracked one otherwise. Any worker
// mutating changes its generation, hence the hash: the distributed
// analogue of the single corpus generation, with the same reach — a
// mutation anywhere stales every cursor and every cached page.
func (c *Coordinator) vectorHash(seen map[string]uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := fnv.New64a()
	for _, n := range c.names {
		gen, ok := seen[n]
		if !ok {
			gen = c.gens[n]
		}
		fmt.Fprintf(h, "%s=%d\n", n, gen)
	}
	return h.Sum64()
}

// Generation implements server.Backend: the hash of the tracked
// generation vector — what an answer reports (gather.hash) as long as
// no worker has mutated behind the coordinator's back since the last
// routed mutation, scatter or poll.
func (c *Coordinator) Generation() uint64 { return c.vectorHash(nil) }

// Parallelism implements server.Backend: the cluster membership.
func (c *Coordinator) Parallelism() int { return len(c.workers) }

// workerBody renders the query as the body scattered to each worker:
// coordinator-only fields stripped, the page window folded into a
// pushed-down limit. The coordinator handles the offset itself (a
// worker cannot know which of its meets fall in the global window),
// so each worker is asked for the first offset+limit of its own
// ranking — the most any single worker can contribute to the page.
func workerBody(req *ncq.Request, offset int) []byte {
	wq := wire.QueryOf(req)
	wq.Cursor = ""
	wq.AllowPartial = false
	if req.Limit > 0 {
		wq.Limit = offset + req.Limit
	}
	body, err := json.Marshal(&wq)
	if err != nil {
		panic(fmt.Sprintf("cluster: marshal worker body: %v", err)) // plain data struct; cannot fail
	}
	return body
}

// gather is the result of a scatter: the surviving worker streams as
// merge sources, their aggregated header counters, the gathered
// generation vector, and the workers allow_partial let it lose. The
// merge pulls its sources one at a time, on the goroutine that reads
// the answer, so failed needs no lock. Close releases every stream.
type gather struct {
	streams   []*workerStream
	sources   []ncq.MeetSource[wire.Answer]
	total     int
	unmatched int
	gens      map[string]uint64
	hash      uint64
	failed    map[string]string // worker -> failure detail
}

func (g *gather) Close() {
	for _, s := range g.streams {
		s.close()
	}
}

// scatterQuery opens the query's worker streams in parallel (the
// owner's alone for a doc-scoped query) and reads every header —
// totals and generations are known before the first merged yield.
// Worker failures follow the query's policy: strict mode aborts on the
// first failure; allow_partial records it and continues with the
// survivors (failing only when no worker survives). A worker answering
// 4xx is a deterministic request error and aborts in either mode.
func (c *Coordinator) scatterQuery(ctx context.Context, req *ncq.Request, offset int) (*gather, error) {
	targets := c.workers
	if req.Doc != "" {
		targets = []Worker{c.Owner(req.Doc)}
	}
	body := workerBody(req, offset)
	type opened struct {
		ws  *workerStream
		err error
	}
	res := fanOut(targets, func(wk Worker) opened {
		t0 := time.Now()
		ws, err := c.openStream(ctx, wk, body)
		c.observeScatter(wk, time.Since(t0), err)
		return opened{ws, err}
	})

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
		if err := res[i].err; err != nil {
			if is4xx(err) {
				return abort(err) // the request itself is bad; every worker agrees
			}
			if !req.AllowPartial {
				return abort(err)
			}
			g.failed[wk.Name] = err.Error()
			lastErr = err
			continue
		}
		ws := res[i].ws
		g.streams = append(g.streams, ws)
		g.sources = append(g.sources, ws)
		g.total += ws.header.Total
		g.unmatched += ws.header.Unmatched
		g.gens[wk.Name] = ws.header.Generation
		if req.AllowPartial {
			ws.onFail = func(w Worker, err error) error {
				g.failed[w.Name] = err.Error()
				return nil // end this source quietly; the merge continues
			}
		}
	}
	if len(g.streams) == 0 {
		return abort(fmt.Errorf("all %d workers failed: %w", len(targets), lastErr))
	}
	g.hash = c.vectorHash(g.gens)
	for w, gen := range g.gens {
		c.noteGen(w, gen)
	}
	return g, nil
}

// errStaleCluster is the distributed 410: the gathered generation
// vector no longer hashes to what the cursor was stamped with.
var errStaleCluster = fmt.Errorf("ncq: %w: the cluster changed since this cursor was minted", ncq.ErrStaleCursor)

// workerFailure gives a scatter or merge failure the status the front
// end answers it with. A worker's 4xx is relayed as it came,
// Retry-After hint included (the request itself is bad, or the worker
// is shedding load: the coordinator never retries either; see send);
// every other worker failure is the coordinator's 502.
func workerFailure(err error) error {
	if is4xx(err) {
		return err
	}
	return &wire.StatusError{Status: http.StatusBadGateway, Err: err}
}

// ResultsWithStats implements server.Backend: one request page over
// the cluster, as the sequence a corpus would hand out. Resolve
// the cursor, scatter, verify the cursor against the gathered
// generation vector (mismatch → ErrStaleCursor, the distributed 410)
// and merge the worker streams line by line into the exact global
// ranking, each canonical line relayed as the bytes it arrived as — the
// first meet flows once every worker has sent its first, and a worker
// that stalls mid-answer holds back nothing already merged. The stats'
// Generation is the hash of the vector the answer was computed against,
// which is what its cursor is stamped with; a partial answer reports
// who failed and mints no cursor — a page chain is always exact.
func (c *Coordinator) ResultsWithStats(ctx context.Context, req ncq.Request) (iter.Seq2[wire.Answer, error], *ncq.StreamStats) {
	stats := &ncq.StreamStats{}
	return func(yield func(wire.Answer, error) bool) {
		if err := c.results(ctx, &req, stats, yield); err != nil {
			yield(wire.Answer{}, err)
		}
	}, stats
}

func (c *Coordinator) results(ctx context.Context, req *ncq.Request, stats *ncq.StreamStats, yield func(wire.Answer, error) bool) error {
	offset, curGen, err := req.Page()
	if err != nil {
		return err
	}
	g, err := c.scatterQuery(ctx, req, offset)
	if err != nil {
		return workerFailure(err)
	}
	defer g.Close()
	if req.Cursor != "" && curGen != g.hash {
		return errStaleCluster
	}
	stats.Fill(req, offset, g.hash, g.total, g.unmatched)
	for a, err := range ncq.MergeMeets(ctx, g.sources, answerKey, offset, req.Limit) {
		if err != nil {
			return workerFailure(err)
		}
		if !yield(a, nil) {
			return nil
		}
	}
	if len(g.failed) > 0 {
		stats.Incomplete, stats.WorkerErrors, stats.NextCursor = true, g.failed, ""
	}
	return nil
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
	return fanOut(c.workers, func(wk Worker) workerHealth {
		h := workerHealth{Name: wk.Name, URL: wk.URL, Status: "unreachable"}
		var body struct {
			Generation uint64 `json:"generation"`
			Docs       int    `json:"docs"`
		}
		if err := c.getJSON(ctx, wk, "/v1/healthz", &body); err != nil {
			h.Error = err.Error()
			return h
		}
		h.Status, h.Generation, h.Docs = "ok", body.Generation, body.Docs
		c.noteGen(wk.Name, body.Generation)
		return h
	})
}

// Poll refreshes the tracked generation vector every pollInterval
// until ctx is cancelled. Run it in a goroutine next to the HTTP
// server; it bounds how stale the coordinator's cache can serve when
// workers are mutated behind its back.
func (c *Coordinator) Poll(ctx context.Context) {
	t := time.NewTicker(pollInterval)
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
