package server

// POST /v2/query — the query endpoint. One request schema
// (internal/wire) covers a single-document query, a corpus-wide query
// and a batch of either, with cursor pagination and a per-request
// deadline. Responses carry the pre-encoded, cached result payload
// plus the page metadata: a truncated flag and the cursor of the next
// page. With ?stream=1 the request streams its meets incrementally as
// NDJSON instead (stream.go).

import (
	"context"
	"net/http"
	"time"

	"ncq"
	"ncq/internal/metrics"
	"ncq/internal/wire"
)

func (f *Front) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, ctx, cancel, ok := wire.Decode(w, r)
	if !ok {
		return
	}
	defer cancel()
	if wire.Flag(r, "stream") {
		f.handleStream(ctx, w, r, start, body.Request)
		return
	}
	if len(body.Batch) > 0 {
		f.handleBatch(ctx, w, start, body.Batch)
		return
	}
	// Read the generation BEFORE executing: a cached answer is served
	// only if it was computed against the state this request arrived
	// to, and an answer a racing mutation got ahead of is stored under
	// the generation it reports itself — never under a newer one.
	gen := f.backend.Generation()
	f.queries.Add(1)
	key := body.Request.Canonical()
	metrics.SetFingerprint(ctx, key)
	resp, err := f.runCached(ctx, gen, key, body.Request)
	if err != nil {
		wire.WriteFailure(w, wire.StatusOf(err), err)
		return
	}
	resp.TookMS = wire.MsSince(start)
	wire.WriteResponse(w, &resp)
}

// handleBatch answers the batch form: per-item validation errors and
// statuses, distinct queries deduplicated onto single executions, all
// looked up under one generation (read before any resolution, for the
// same reason as in handleQuery).
func (f *Front) handleBatch(ctx context.Context, w http.ResponseWriter, start time.Time, batch []wire.Query) {
	f.batches.Add(1)
	gen := f.backend.Generation()
	items := make([]wire.BatchItem, len(batch))
	reqs := make([]*ncq.Request, len(batch))
	for i := range batch {
		q := &batch[i]
		if err := q.Lower(); err != nil {
			items[i] = wire.BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		f.queries.Add(1)
		reqs[i] = &q.Request
	}
	assigned, units := collectUnits(reqs)
	f.runUnits(ctx, gen, units)
	for i, u := range assigned {
		if u == nil {
			continue // already carries its validation error
		}
		if u.err != nil {
			items[i] = wire.BatchItem{Status: wire.StatusOf(u.err), Error: u.err.Error()}
			continue
		}
		items[i] = u.out.Item()
	}
	wire.WriteBatch(w, &wire.BatchResponse{Generation: gen, TookMS: wire.MsSince(start), Results: items})
}
