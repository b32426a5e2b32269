package ncq

// Run — the batch view of the Querier implementations of Database and
// Corpus. Execution is iterator-native (results.go): Run drains the
// same incrementally merged sequence the streaming surfaces consume
// and attaches the page metadata, for a term request and a
// query-language one alike.

import (
	"context"
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

// run is Run for both Queriers, the batch view of the incremental core:
// drain the one pipeline's (already offset- and limit-windowed)
// sequence and attach the stream counters as page metadata.
func run(ctx context.Context, r resolver, req Request) (*Result, error) {
	start := time.Now()
	seq, stats := resultsWithStats(ctx, r, req)
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
	res.Elapsed = time.Since(start)
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
