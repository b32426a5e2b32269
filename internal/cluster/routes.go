package cluster

// The coordinator's HTTP surface — deliberately the same shape a
// single ncqd node serves, so clients (and the CLIs) need no cluster
// awareness:
//
//	POST   /v2/query       the one front end (server.Front) over the
//	                       scatter (coordinator.go) as its backend
//	PUT    /v1/docs/{name} routed to the ring owner of the name
//	GET    /v1/docs/{name} routed to the ring owner
//	DELETE /v1/docs/{name} routed to the ring owner
//	GET    /v1/docs        union of every worker's documents
//	GET    /v1/healthz     live worker poll: ok / degraded
//	GET    /v1/stats       coordinator counters + per-worker stats

import (
	"encoding/json"
	"errors"
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
// that owns the name on the ring and relays the owner's answer. A read
// is retried like a scatter's stream open; a mutation never is (a
// replayed PUT racing another client is not idempotent in effect). The owner's
// generation stamp is folded into the tracked vector, so the very next
// query's cursor already reflects the mutation.
func (c *Coordinator) handleDocProxy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	wk := c.Owner(name)
	mutation := r.Method == http.MethodPut || r.Method == http.MethodDelete
	cl := call{method: r.Method, path: "/v1/docs/" + url.PathEscape(name), retry: !mutation}
	if q := r.URL.RawQuery; q != "" {
		cl.path += "?" + q
	}
	if mutation {
		cl.upload = r
	}
	resp, err := c.send(r.Context(), wk, cl)
	var reply *workerReply
	if err != nil && !errors.As(err, &reply) {
		wire.WriteError(w, http.StatusBadGateway, "worker %s: %v", wk.Name, err)
		return
	}
	w.Header().Set("X-NCQ-Worker", wk.Name)
	if reply != nil {
		wire.WriteError(w, reply.status, "%s", reply.msg)
		return
	}
	defer resp.Body.Close()
	if gen := resp.Header.Get("X-NCQ-Generation"); gen != "" {
		if v, err := strconv.ParseUint(gen, 10, 64); err == nil {
			c.noteGen(wk.Name, v)
		}
	}
	if mutation {
		c.front.Mutated()
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (c *Coordinator) handleListDocs(w http.ResponseWriter, r *http.Request) {
	type listing struct {
		Docs       []wire.Doc `json:"docs"`
		Generation uint64     `json:"generation"`
		err        error
	}
	results := fanOut(c.workers, func(wk Worker) (l listing) {
		if l.err = c.getJSON(r.Context(), wk, "/v1/docs", &l); l.err == nil {
			c.noteGen(wk.Name, l.Generation)
			for i := range l.Docs {
				l.Docs[i].Worker = wk.Name
			}
		}
		return l
	})
	docs := []wire.Doc{}
	workerErrors := map[string]string{}
	for i, l := range results {
		if l.err != nil {
			workerErrors[c.workers[i].Name] = l.err.Error()
			continue
		}
		docs = append(docs, l.Docs...)
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
	stats := fanOut(c.workers, func(wk Worker) any {
		var raw json.RawMessage
		if err := c.getJSON(r.Context(), wk, "/v1/stats", &raw); err != nil {
			return map[string]string{"name": wk.Name, "error": err.Error()}
		}
		return raw
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
