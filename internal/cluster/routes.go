package cluster

// The coordinator's HTTP surface — deliberately the same shape a
// single ncqd node serves, so clients (and the CLIs) need no cluster
// awareness:
//
//	POST   /v2/query       the system's one front end (server.Front)
//	                       over the scatter as its backend
//	                       (coordinator.go): term queries merged from
//	                       the workers' NDJSON streams; "allow_partial"
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
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"ncq/internal/wire"
)

func (c *Coordinator) routes() {
	mux := http.NewServeMux()
	handle := func(pattern, route string, quiet bool, h http.Handler) {
		mux.Handle(pattern, c.httpm.Instrument(route, c.logger, quiet, h))
	}
	handle("POST /v2/query", "/v2/query", false, c.front.Handler())
	handle("PUT /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(c.handleDocProxy))
	handle("GET /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(c.handleDocProxy))
	handle("DELETE /v1/docs/{name}", "/v1/docs/{name}", false, http.HandlerFunc(c.handleDocProxy))
	handle("GET /v1/docs", "/v1/docs", false, http.HandlerFunc(c.handleListDocs))
	handle("GET /v1/healthz", "/v1/healthz", true, http.HandlerFunc(c.handleHealthz))
	handle("GET /v1/stats", "/v1/stats", true, http.HandlerFunc(c.handleStats))
	handle("GET /v1/metrics", "/v1/metrics", true, c.reg.Handler())
	c.mux = mux
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
		c.front.Mutated()
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-NCQ-Worker", wk.Name)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (c *Coordinator) handleListDocs(w http.ResponseWriter, r *http.Request) {
	type listing struct {
		docs []wire.Doc
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
			Docs       []wire.Doc `json:"docs"`
			Generation uint64     `json:"generation"`
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
	docs := []wire.Doc{}
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
		"generation": c.Generation(),
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
		"generation": c.Generation(),
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
	fs := c.front.Stats()
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"node":           c.cfg.NodeName,
		"role":           "coordinator",
		"uptime_seconds": time.Since(c.started).Seconds(),
		"generation":     c.Generation(),
		"workers":        len(c.workers),
		"queries":        fs.Queries,
		"batches":        fs.Batches,
		"mutations":      fs.Mutations,
		"cache":          fs.Cache,
		"admission":      fs.Admission,
		"worker_stats":   stats,
	})
}
