package server

// Observability and admission wiring. Each Server owns a private
// metrics.Registry exposed at GET /v1/metrics in the Prometheus text
// format; counters the server already keeps (traffic totals, cache
// statistics, admission outcomes) are sampled at exposition time
// instead of being double-booked, while per-request series (route
// latency, stream accounting) are live metric objects updated on the
// request path. The admission gate (wire.Admit) sits in front of the
// query route only: document mutations and introspection endpoints
// must stay reachable on a saturated node, or operators lose the tools
// to diagnose the saturation.

import (
	"time"

	"ncq/internal/metrics"
)

// initObservability registers every metric family on the server's
// registry. Called once from New, after options have applied.
func (s *Server) initObservability() {
	reg := s.reg
	s.httpm = metrics.NewHTTP(reg)

	s.queriesInflight = reg.Gauge("ncq_queries_inflight",
		"Query requests currently admitted and executing (including streams).")
	s.streamsInflight = reg.Gauge("ncq_streams_inflight",
		"NDJSON query streams currently open.")
	s.streamLines = reg.Counter("ncq_stream_lines_total",
		"NDJSON lines written across all query streams (header, meet, error and trailer records).")
	s.streamBytes = reg.Counter("ncq_stream_bytes_total",
		"Bytes written across all NDJSON query streams, newlines included.")
	s.vagueRequests = reg.Counter("ncq_vague_requests_total",
		"Term queries executed in the vague-constraints mode (cache hits included).")
	s.vagueRelax = reg.Histogram("ncq_vague_relaxations_total",
		"Relaxed answers produced by vague queries, by structural slack used (cache misses only).",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16})

	reg.CounterFunc("ncq_queries_total",
		"Queries that reached execution, batch items included.",
		func() float64 { return float64(s.queries.Load()) })
	reg.CounterFunc("ncq_batches_total",
		"Batch requests accepted.",
		func() float64 { return float64(s.batches.Load()) })
	reg.CounterFunc("ncq_mutations_total",
		"Document PUT/DELETE operations that changed the corpus.",
		func() float64 { return float64(s.mutations.Load()) })
	reg.GaugeFunc("ncq_pool_depth",
		"Width of the query fan-out worker pool.",
		func() float64 { return float64(s.corpus.Parallelism()) })
	reg.GaugeFunc("ncq_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })

	s.cache.Register(reg)

	// Durability series sample the writer; without -data-dir its
	// counters stay zero, keeping the scrape surface stable.
	durableStats := s.docs.Stats
	reg.CounterFunc("ncq_wal_appends_total",
		"Mutation records appended to the write-ahead log.",
		func() float64 { return float64(durableStats().WAL.Appends) })
	reg.CounterFunc("ncq_wal_fsyncs_total",
		"fsyncs issued by the write-ahead log (appends, Sync, Close).",
		func() float64 { return float64(durableStats().WAL.Fsyncs) })
	reg.CounterFunc("ncq_wal_bytes_total",
		"Bytes appended to the write-ahead log, framing included.",
		func() float64 { return float64(durableStats().WAL.Bytes) })
	reg.CounterFunc("ncq_snapshot_bytes_total",
		"Snapshot bytes written by document commits since boot.",
		func() float64 { return float64(durableStats().SnapshotBytes) })
	reg.CounterFunc("ncq_durable_commits_total",
		"Document mutations acknowledged as durable since boot.",
		func() float64 { return float64(durableStats().Commits) })
	reg.GaugeFunc("ncq_replay_duration_seconds",
		"Time boot recovery spent replaying the log over the snapshots.",
		func() float64 { return durableStats().ReplayDuration.Seconds() })
	reg.GaugeFunc("ncq_replay_records",
		"WAL records replayed by boot recovery.",
		func() float64 { return float64(durableStats().ReplayRecords) })

	s.limiter.Register(reg)
}
