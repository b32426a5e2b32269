package server

import (
	"context"
	"net/http"
	"time"

	"ncq"
	"ncq/internal/metrics"
	"ncq/internal/wire"
)

// handleStream answers the ?stream=1 form of /v2/query (the NDJSON
// protocol is internal/wire's). The first line is observable as soon
// as every fan-out member has produced its first answer — bounded by
// the slowest member's first result, not by its full answer set —
// which is the whole point of the endpoint: on a wide corpus the
// client renders nearest concepts while the long tail is still being
// merged. ctx carries the per-request deadline.
func (f *Front) handleStream(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time, req ncq.Request) {
	f.queries.Add(1)
	f.streamsInflight.Inc()
	defer f.streamsInflight.Dec()
	metrics.SetFingerprint(ctx, req.Canonical())
	seq, stats := f.backend.ResultsWithStats(ctx, req)
	if req.Vague != nil {
		f.vagueRequests.Inc()
		// Streams bypass the cache, so every drain is real execution;
		// stats (and the relaxation counts) are complete before the
		// first yield.
		defer func() { f.observeRelaxations(stats.RelaxationsBySlack) }()
	}
	// stats are complete before the first yield (and before the
	// trailer of an empty stream), so a header always carries the final
	// counters and the snapshot's generation.
	header := func() wire.Header {
		return wire.Header{Node: f.nodeName, Generation: stats.Generation, Total: stats.Total, Unmatched: stats.Unmatched}
	}
	sw := wire.NewStreamWriter(w, r, header, f.streamLines, f.streamBytes)
	defer sw.Close()
	for a, err := range seq {
		if err != nil {
			sw.Fail(wire.StatusOf(err), err)
			return
		}
		if !sw.Meet(&a) {
			return // client went away; execution stops with the range
		}
	}
	sw.Trailer(wire.Trailer{
		Unmatched:    stats.Unmatched,
		Truncated:    stats.Truncated,
		NextCursor:   stats.NextCursor,
		Incomplete:   stats.Incomplete,
		WorkerErrors: stats.WorkerErrors,
		TookMS:       wire.MsSince(start),
	})
}
