package cluster

// The coordinator's HTTP surface — deliberately the same shape a
// single ncqd node serves, so clients (and the CLIs) need no cluster
// awareness:
//
//	POST   /v2/query       scatter-gather term query over all workers
//	                       (?stream=1 merges the workers' NDJSON
//	                       streams incrementally); "allow_partial"
//	                       degrades worker failures instead of 502
//	PUT    /v1/docs/{name} routed to the ring owner of the name
//	GET    /v1/docs/{name} routed to the ring owner
//	DELETE /v1/docs/{name} routed to the ring owner
//	GET    /v1/docs        union of every worker's documents
//	GET    /v1/healthz     live worker poll: ok / degraded
//	GET    /v1/stats       coordinator counters + per-worker stats

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"ncq"
	"ncq/internal/metrics"
	"ncq/internal/wire"
)

func (c *Coordinator) routes() {
	mux := http.NewServeMux()
	handle := func(pattern, route string, quiet bool, h http.Handler) {
		mux.Handle(pattern, c.httpm.Instrument(route, c.logger, quiet, h))
	}
	handle("POST /v2/query", "/v2/query", false,
		wire.Admit(c.limiter, c.queriesInflight, http.HandlerFunc(c.handleQuery)))
	handle("PUT /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(c.handleDocProxy))
	handle("GET /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(c.handleDocProxy))
	handle("DELETE /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(c.handleDocProxy))
	handle("GET /v1/docs", "/v1/docs", false, http.HandlerFunc(c.handleListDocs))
	handle("GET /v1/healthz", "/v1/healthz", true, http.HandlerFunc(c.handleHealthz))
	handle("GET /v1/stats", "/v1/stats", true, http.HandlerFunc(c.handleStats))
	handle("GET /v1/metrics", "/v1/metrics", true, c.reg.Handler())
	c.mux = mux
}

// statusOf maps a coordinator-side failure to its HTTP status. A
// worker's 4xx is relayed verbatim (the request itself is bad); every
// other worker failure is the coordinator's 502.
func statusOf(err error) int {
	var he *workerHTTPError
	switch {
	case errors.As(err, &he):
		if he.status < 500 {
			return he.status
		}
		return http.StatusBadGateway
	case errors.Is(err, errQueryLanguage):
		return http.StatusNotImplemented
	default:
		return wire.StatusOf(err, http.StatusBadGateway)
	}
}

// writeQueryError renders an execution failure, relaying a worker's
// Retry-After hint when the failure is a relayed 4xx (a shed worker's
// 429 backpressure must reach the client intact — the coordinator
// never retries it; see openStream).
func writeQueryError(w http.ResponseWriter, err error) {
	var he *workerHTTPError
	if errors.As(err, &he) && he.status < 500 && he.retryAfter != "" {
		w.Header().Set("Retry-After", he.retryAfter)
	}
	wire.WriteError(w, statusOf(err), "%v", err)
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, ctx, cancel, ok := wire.Decode(w, r)
	if !ok {
		return
	}
	defer cancel()
	if wire.Flag(r, "stream") {
		c.handleStream(ctx, w, r, start, &req.Query)
		return
	}
	if len(req.Batch) > 0 {
		c.handleBatch(ctx, w, start, req.Batch)
		return
	}
	metrics.SetFingerprint(ctx, baseOf(&req.Query))
	resp, err := c.runPage(ctx, &req.Query)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	wire.WriteResponse(w, start, resp)
}

// handleBatch relays a batch item by item, each with the status it
// would have received on its own.
func (c *Coordinator) handleBatch(ctx context.Context, w http.ResponseWriter, start time.Time, batch []wire.Query) {
	items := make([]wire.BatchItem, len(batch))
	for i := range batch {
		q := &batch[i]
		if err := q.Validate(); err != nil {
			items[i] = wire.BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		resp, err := c.runPage(ctx, q)
		if err != nil {
			items[i] = wire.BatchItem{Status: statusOf(err), Error: err.Error()}
			continue
		}
		items[i] = resp.Item()
	}
	wire.WriteJSON(w, http.StatusOK, wire.BatchResponse{
		Generation: c.trackedHash(c.workers), TookMS: wire.MsSince(start), Results: items})
}

// handleStream is the coordinator's ?stream=1 form: the workers'
// NDJSON streams merged line by line into the global rank and written
// under the StreamWriter's delivery rule — the first merged meet at
// once, later ones coalesced but never held longer than its delay
// bound, so a worker that stalls mid-answer does not park the lines
// already merged. Like the single-node endpoint it bypasses the cache —
// the value is the incremental production.
func (c *Coordinator) handleStream(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time, q *wire.Query) {
	if q.IsQuery() {
		wire.WriteError(w, statusOf(errQueryLanguage), "%v", errQueryLanguage)
		return
	}
	base := baseOf(q)
	metrics.SetFingerprint(ctx, base)
	offset, curGen, err := ncq.ResolveCursor(q.Cursor, base)
	if err != nil {
		wire.WriteError(w, statusOf(err), "%v", err)
		return
	}
	c.queries.Add(1)
	c.streamsInflight.Inc()
	defer c.streamsInflight.Dec()
	g, err := c.scatterQuery(ctx, q, offset)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer g.Close()
	if q.Cursor != "" && curGen != g.hash {
		writeQueryError(w, errStaleCluster)
		return
	}
	header := func() wire.Header {
		return wire.Header{Node: c.cfg.NodeName, Generation: g.hash, Total: g.total, Unmatched: g.unmatched}
	}
	sw := wire.NewStreamWriter(w, r, header, nil, nil)
	defer sw.Close()
	for m, err := range ncq.MergeMeets(ctx, g.sources, offset, q.Limit) {
		if err != nil {
			sw.Fail(statusOf(err), err)
			return
		}
		if !sw.Meet(&m) {
			return // client went away
		}
	}
	tr := g.finish(q, base, offset)
	tr.TookMS = wire.MsSince(start)
	sw.Trailer(tr)
}

// handleDocProxy routes a document read or mutation to the worker
// that owns the name on the ring. Mutations are never retried (a
// replayed PUT racing another client is not idempotent in effect);
// the owner's generation stamp is folded into the tracked vector, so
// the very next query's cursor already reflects the mutation.
func (c *Coordinator) handleDocProxy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	wk := c.Owner(name)
	target := wk.URL + "/v1/docs/" + url.PathEscape(name)
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.cfg.WorkerTimeout)
	defer cancel()
	attempts := 1
	if r.Method == http.MethodGet {
		attempts += c.cfg.Retries // reads are safe to retry; mutations are not
	}
	var resp *http.Response
	var err error
	for i := 0; i < attempts; i++ {
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, r.Method, target, r.Body)
		if err != nil {
			break
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		req.ContentLength = r.ContentLength
		resp, err = c.client.Do(req)
		if err == nil {
			break
		}
	}
	if err != nil {
		wire.WriteError(w, http.StatusBadGateway, "worker %s: %v", wk.Name, err)
		return
	}
	defer resp.Body.Close()
	if gen := resp.Header.Get("X-NCQ-Generation"); gen != "" {
		if v, err := strconv.ParseUint(gen, 10, 64); err == nil {
			c.noteGen(wk.Name, v)
		}
	}
	mutation := r.Method == http.MethodPut || r.Method == http.MethodDelete
	if mutation && resp.StatusCode < 300 {
		c.mutations.Add(1)
		c.cache.Purge()
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-NCQ-Worker", wk.Name)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// workerDoc is one document of the cluster listing: the worker's
// docInfo plus which worker holds it.
type workerDoc struct {
	Name   string          `json:"name"`
	Shards int             `json:"shards"`
	Stats  json.RawMessage `json:"stats"`
	Worker string          `json:"worker"`
}

func (c *Coordinator) handleListDocs(w http.ResponseWriter, r *http.Request) {
	type listing struct {
		docs []workerDoc
		err  error
	}
	results := c.forEachWorker(r.Context(), func(ctx context.Context, wk Worker) any {
		var out listing
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.URL+"/v1/docs", nil)
		if err != nil {
			out.err = err
			return out
		}
		resp, err := c.client.Do(req)
		if err != nil {
			out.err = err
			return out
		}
		defer resp.Body.Close()
		var body struct {
			Docs       []workerDoc `json:"docs"`
			Generation uint64      `json:"generation"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			out.err = err
			return out
		}
		if resp.StatusCode != http.StatusOK {
			out.err = fmt.Errorf("status %d", resp.StatusCode)
			return out
		}
		c.noteGen(wk.Name, body.Generation)
		for i := range body.Docs {
			body.Docs[i].Worker = wk.Name
		}
		out.docs = body.Docs
		return out
	})
	docs := []workerDoc{}
	workerErrors := map[string]string{}
	for i, res := range results {
		l := res.(listing)
		if l.err != nil {
			workerErrors[c.workers[i].Name] = l.err.Error()
			continue
		}
		docs = append(docs, l.docs...)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	body := map[string]any{
		"docs":       docs,
		"generation": c.trackedHash(c.workers),
	}
	if len(workerErrors) > 0 {
		body["worker_errors"] = workerErrors
	}
	wire.WriteJSON(w, http.StatusOK, body)
}

// forEachWorker runs fn against every worker in parallel, each under
// its own WorkerTimeout derived from ctx — so a caller that goes away
// (a disconnected /v1/docs or /v1/stats client) cancels the whole
// scatter instead of leaving len(workers) orphaned requests running
// to their full timeout. Results come back in worker order.
func (c *Coordinator) forEachWorker(ctx context.Context, fn func(ctx context.Context, wk Worker) any) []any {
	out := make([]any, len(c.workers))
	done := make(chan int, len(c.workers))
	for i, wk := range c.workers {
		go func(i int, wk Worker) {
			wctx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
			defer cancel()
			out[i] = fn(wctx, wk)
			done <- i
		}(i, wk)
	}
	for range c.workers {
		<-done
	}
	return out
}

// handleHealthz reports the coordinator's liveness and a live poll of
// every worker: "ok" when all workers answer, "degraded" otherwise.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	health := c.PollOnce(r.Context())
	status := "ok"
	for _, h := range health {
		if h.Status != "ok" {
			status = "degraded"
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"node":       c.cfg.NodeName,
		"role":       "coordinator",
		"generation": c.trackedHash(c.workers),
		"workers":    health,
	})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := c.forEachWorker(r.Context(), func(ctx context.Context, wk Worker) any {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.URL+"/v1/stats", nil)
		if err != nil {
			return map[string]string{"name": wk.Name, "error": err.Error()}
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return map[string]string{"name": wk.Name, "error": err.Error()}
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil || resp.StatusCode != http.StatusOK {
			return map[string]string{"name": wk.Name, "error": fmt.Sprintf("status %d", resp.StatusCode)}
		}
		return json.RawMessage(raw)
	})
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"node":           c.cfg.NodeName,
		"role":           "coordinator",
		"uptime_seconds": time.Since(c.started).Seconds(),
		"generation":     c.trackedHash(c.workers),
		"workers":        len(c.workers),
		"queries":        c.queries.Load(),
		"mutations":      c.mutations.Load(),
		"cache":          c.cache.Stats(),
		"admission":      c.limiter.Stats(),
		"worker_stats":   stats,
	})
}
