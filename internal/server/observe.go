package server

// Observability. Each Server owns a private metrics.Registry exposed
// at GET /v1/metrics in the Prometheus text format. The query route's
// families are the front end's (front.go registers them on the same
// registry); what is registered here is the node's own: uptime, the
// durability counters, locate's memo counters and the plan memo's,
// sampled at exposition time from counters the writer, the full-text
// index and the members already keep.

import (
	"time"

	"ncq"
	"ncq/internal/fulltext"
	"ncq/internal/metrics"
)

// initObservability registers every metric family on the server's
// registry. Called once from New, after options have applied.
func (s *Server) initObservability() {
	reg := s.reg
	s.httpm = metrics.NewHTTP(reg)

	reg.GaugeFunc("ncq_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })

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
	reg.GaugeFunc("ncq_wal_failed",
		"1 once a write-ahead log write or fsync failed: every PUT and DELETE is refused until a restart.",
		func() float64 {
			if durableStats().WAL.Failed {
				return 1
			}
			return 0
		})
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

	// Locate's needle memo, process-wide: every `contains` a member
	// answers is one or the other.
	reg.CounterFunc("ncq_locate_memo_hits_total",
		"Term locates answered from a member index's needle memo.",
		func() float64 { h, _ := fulltext.MemoCounts(); return float64(h) })
	reg.CounterFunc("ncq_locate_memo_misses_total",
		"Term locates that searched a member's substring index.",
		func() float64 { _, m := fulltext.MemoCounts(); return float64(m) })

	// The members' plan memo, process-wide: every term request reads
	// its plan on each member it runs on, memoized or compiled.
	reg.CounterFunc("ncq_plan_memo_hits_total",
		"Term-request plans read from a member's plan memo.",
		func() float64 { h, _ := ncq.PlanMemoCounts(); return float64(h) })
	reg.CounterFunc("ncq_plan_memo_misses_total",
		"Term-request plans compiled against a member's path summary.",
		func() float64 { _, m := ncq.PlanMemoCounts(); return float64(m) })
}
