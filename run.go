package ncq

// Run — the batch view of the Querier implementations of Database and
// Corpus. Execution is iterator-native (results.go): Run drains the
// same incrementally merged sequence the streaming surfaces consume
// and attaches the page metadata, for a term request and a
// query-language one alike.

import (
	"context"
	"iter"
	"time"
)

// Run executes the request against the single loaded document.
// Request.Doc must be empty: a Database holds one anonymous document.
func (db *Database) Run(ctx context.Context, req Request) (*Result, error) {
	return run(ctx, db.resolve, req)
}

// Run executes the request against the corpus: the whole membership,
// or the member named by Request.Doc (fanning out over its shards).
// Cancellation and deadlines on ctx stop the member fan-out mid-flight
// and return ctx.Err().
func (c *Corpus) Run(ctx context.Context, req Request) (*Result, error) {
	return run(ctx, c.resolve, req)
}

// run is Run for both Queriers: drain the one pipeline.
func run(ctx context.Context, r resolver, req Request) (*Result, error) {
	start := time.Now()
	res, err := DrainResults(resultsWithStats(ctx, r, req))
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// DrainResults is the batch view of the incremental core: consume the
// whole (already offset- and limit-windowed) sequence and attach the
// stream counters as page metadata — "Run is drain plus paginate", for
// a Database, a Corpus and any other executor that hands out a ranked
// sequence with its StreamStats. What a Result has no field for
// (Generation, Incomplete, WorkerErrors) stays readable on stats.
func DrainResults(seq iter.Seq2[CorpusMeet, error], stats *StreamStats) (*Result, error) {
	res := &Result{}
	for m, err := range seq {
		if err != nil {
			return nil, err
		}
		res.Meets = append(res.Meets, m)
	}
	res.Unmatched = stats.Unmatched
	res.UnmatchedNodes = stats.UnmatchedNodes
	res.Truncated = stats.Truncated
	res.NextCursor = stats.NextCursor
	res.RelaxationsBySlack = stats.RelaxationsBySlack
	return res, nil
}

// RankLess is the global ranking of merged answers: ascending
// distance, ties by source name, shard, then document order — the
// total order every page of a paginated run is cut from (the k-way
// merge of results.go yields in exactly this order).
func RankLess(a, b *CorpusMeet) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	return a.Node < b.Node
}
