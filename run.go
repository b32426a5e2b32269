package ncq

// Run and RunStream — the Querier implementations of Database and
// Corpus. Term execution is iterator-native (results.go): Run drains
// the same incrementally merged sequence the streaming surfaces
// consume and attaches the page metadata; query-language execution
// evaluates per member and pages over the concatenated answer rows.

import (
	"context"
	"iter"
	"time"

	"ncq/internal/query"
)

// Run executes the request against the single loaded document.
// Request.Doc must be empty: a Database holds one anonymous document.
func (db *Database) Run(ctx context.Context, req Request) (*Result, error) {
	return run(ctx, db.resolve, req)
}

// RunStream delivers the ranked meets of a term request one at a time.
func (db *Database) RunStream(ctx context.Context, req Request, yield func(CorpusMeet) bool) error {
	return streamMeets(ctx, db, req, yield)
}

// run is Run for both Queriers: a term request drains the incremental
// core, a query-language one evaluates per member.
func run(ctx context.Context, r resolver, req Request) (*Result, error) {
	start := time.Now()
	if err := req.validate(); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	if req.isQuery() {
		res, err = runQuery(ctx, r, req)
	} else {
		res, err = DrainResults(resultsWithStats(ctx, r, req))
	}
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

// lessCorpusMeet is the global ranking of merged answers: ascending
// distance, ties by source name, shard, then document order — the
// total order every page of a paginated run is cut from (the k-way
// merge of results.go yields in exactly this order).
func lessCorpusMeet(a, b CorpusMeet) bool {
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

// pageAnswerRows applies offset and limit to a query-language result:
// the page window runs over the concatenated rows of all answers, in
// answer order. keepEmpty retains answers whose rows were consumed by
// the offset (a run against one named document always reports its
// single answer); a corpus-wide run drops them, matching the
// omit-empty-answers contract of Corpus.Query. gen is stamped into the
// minted cursor so a later page can detect a corpus mutation.
func pageAnswerRows(res *Result, offset, limit int, fp uint32, gen uint64, keepEmpty bool) {
	if offset > 0 {
		kept := res.Answers[:0]
		skip := offset
		for _, a := range res.Answers {
			rows := a.Answer.Rows
			if skip >= len(rows) {
				skip -= len(rows)
				if keepEmpty {
					a.Answer.Rows = rows[len(rows):]
					kept = append(kept, a)
				}
				continue
			}
			a.Answer.Rows = rows[skip:]
			skip = 0
			kept = append(kept, a)
		}
		res.Answers = kept
	}
	if limit > 0 {
		remaining := limit
		for i := range res.Answers {
			rows := res.Answers[i].Answer.Rows
			if len(rows) > remaining {
				res.Answers[i].Answer.Rows = rows[:remaining]
				res.Truncated = true
			}
			remaining -= len(res.Answers[i].Answer.Rows)
			if remaining <= 0 {
				for j := i + 1; j < len(res.Answers); j++ {
					if len(res.Answers[j].Answer.Rows) > 0 {
						res.Truncated = true
					}
				}
				res.Answers = res.Answers[:i+1]
				break
			}
		}
	}
	if res.Truncated {
		delivered := 0
		for _, a := range res.Answers {
			delivered += len(a.Answer.Rows)
		}
		res.NextCursor = encodeCursor(offset+delivered, fp, gen)
	}
}

// Run executes the request against the corpus: the whole membership,
// or the member named by Request.Doc (fanning out over its shards).
// Cancellation and deadlines on ctx stop the member fan-out mid-flight
// and return ctx.Err().
func (c *Corpus) Run(ctx context.Context, req Request) (*Result, error) {
	return run(ctx, c.resolve, req)
}

// RunStream delivers the ranked meets of a term request one at a time.
func (c *Corpus) RunStream(ctx context.Context, req Request, yield func(CorpusMeet) bool) error {
	return streamMeets(ctx, c, req, yield)
}

// runQuery evaluates a query-language request: parsed once, evaluated
// per member concurrently, shard answers merged per logical name.
func runQuery(ctx context.Context, r resolver, req Request) (*Result, error) {
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	t, offset, err := openPage(r, &req)
	if err != nil {
		return nil, err
	}
	members := t.members
	answers := make([]*Answer, len(members))
	err = forEachDoc(ctx, len(members), t.workers, func(i int) error {
		ans, err := members[i].db.engine.Eval(q)
		if err != nil {
			return t.memberErr(i, err)
		}
		answers[i] = ans
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	// A run against one document — a named member, or a Database —
	// always reports its single answer.
	single := req.Doc != "" || t.anonymous
	if single {
		res.Answers = []CorpusAnswer{{Source: req.Doc, Answer: mergeAnswers(answers)}}
	} else {
		// Merge shard answers per logical member, omitting members whose
		// answer has no rows: with nearest concept queries the
		// interesting outcome is where the terms meet, not where they
		// do not.
		for i := 0; i < len(members); {
			j := i + 1
			for j < len(members) && members[j].name == members[i].name {
				j++
			}
			merged := mergeAnswers(answers[i:j])
			if merged != nil && len(merged.Rows) > 0 {
				res.Answers = append(res.Answers, CorpusAnswer{Source: members[i].name, Answer: merged})
			}
			i = j
		}
	}
	pageAnswerRows(res, offset, req.Limit, req.fingerprint(), t.gen, single)
	return res, nil
}
