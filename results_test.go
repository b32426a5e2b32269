package ncq

// Tests for the iterator-native execution core: the equivalence of
// every consumption style of one answer set (Results, Run, paginated
// Run), the incremental-delivery property the redesign
// exists for, cancellation mid-stream, and cursor staleness across
// corpus mutations.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ncq/internal/query"
	"ncq/internal/xmltree"
)

// collectResults drains a Results sequence, failing the test on any
// yielded error.
func collectResults(t *testing.T, q Querier, req Request) []CorpusMeet {
	t.Helper()
	var out []CorpusMeet
	for m, err := range q.Results(context.Background(), req) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestResultsEquivalenceRandom is the property test of the redesign:
// over randomized corpora — plain and sharded members mixed — the
// Results sequence and the pages of a paginated Run concatenated across
// cursors produce exactly the ordered answer set of an unlimited Run.
func TestResultsEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260728))
	vocab := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		c := NewCorpus()
		nMembers := 1 + r.Intn(4)
		for i := 0; i < nMembers; i++ {
			doc := xmltree.Random(r, 150+r.Intn(250))
			name := fmt.Sprintf("m%d", i)
			if r.Intn(2) == 0 {
				if _, _, err := c.AddSharded(name, doc, 2+r.Intn(3)); err != nil {
					t.Fatal(err)
				}
			} else {
				db, err := fromDocument(doc)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Add(name, db); err != nil {
					t.Fatal(err)
				}
			}
		}
		terms := make([]string, 2+r.Intn(2))
		for i := range terms {
			terms[i] = vocab[r.Intn(len(vocab))]
		}
		req := Request{Terms: terms}
		if r.Intn(2) == 0 {
			req.Options = ExcludeRoot()
		}

		full, err := c.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}

		if got := collectResults(t, c, req); !reflect.DeepEqual(got, full.Meets) {
			t.Fatalf("trial %d: Results diverged from Run: %d vs %d meets",
				trial, len(got), len(full.Meets))
		}

		paged := req
		paged.Limit = 1 + r.Intn(5)
		var collected []CorpusMeet
		for pages := 0; ; pages++ {
			res, err := c.Run(ctx, paged)
			if err != nil {
				t.Fatal(err)
			}
			collected = append(collected, res.Meets...)
			if res.NextCursor == "" {
				break
			}
			paged.Cursor = res.NextCursor
			if pages > len(full.Meets) {
				t.Fatalf("trial %d: pagination does not terminate", trial)
			}
		}
		if !reflect.DeepEqual(collected, full.Meets) {
			t.Fatalf("trial %d: concatenated pages diverged from Run: %d vs %d",
				trial, len(collected), len(full.Meets))
		}
	}

	// The same equivalence holds for a single Database.
	db, err := fromDocument(bigBib(20))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot()}
	full, err := db.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Meets) == 0 {
		t.Fatal("workload too small")
	}
	if got := collectResults(t, db, req); !reflect.DeepEqual(got, full.Meets) {
		t.Errorf("database Results diverged from Run")
	}
}

// TestResultsFirstYieldBeforeSlowMemberDrains is the acceptance test
// of incremental delivery: on a five-member corpus with one
// instrumented slow member (every pull from its local stream is
// delayed), the first globally ranked yield completes while the slow
// member's stream still holds pending meets — i.e. before its
// incremental termMeets drain returns — so end-to-end latency is
// bounded by the slowest member's first result, not its full answer
// set.
func TestResultsFirstYieldBeforeSlowMemberDrains(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 4; i++ {
		db, err := fromDocument(bigBib(15))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fmt.Sprintf("m%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	slowDB, err := fromDocument(bigBib(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("slow", slowDB); err != nil {
		t.Fatal(err)
	}

	// The merge runs on the consuming goroutine, so the hook and the
	// range body observe each other without synchronisation.
	var (
		firstYield        time.Time
		slowExhausted     time.Time
		slowPulls         int
		pullsAtFirstYield = -1
	)
	testStreamPull = func(source string, shard, remaining int) {
		if source != "slow" {
			return
		}
		slowPulls++
		if remaining == 0 {
			slowExhausted = time.Now()
		}
		time.Sleep(time.Millisecond)
	}
	defer func() { testStreamPull = nil }()

	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot()}
	yields := 0
	for m, err := range c.Results(context.Background(), req) {
		if err != nil {
			t.Fatal(err)
		}
		if yields == 0 {
			firstYield = time.Now()
			pullsAtFirstYield = slowPulls
		}
		yields++
		_ = m
	}
	if yields == 0 || slowPulls < 2 {
		t.Fatalf("workload too small: %d yields, %d slow pulls", yields, slowPulls)
	}
	if slowExhausted.IsZero() {
		t.Fatal("slow member's stream never drained")
	}
	if !firstYield.Before(slowExhausted) {
		t.Errorf("first yield at %v, but the slow member had already drained at %v",
			firstYield, slowExhausted)
	}
	if pullsAtFirstYield >= slowPulls {
		t.Errorf("no slow-member pulls after the first yield (%d of %d): stream was not mid-flight",
			pullsAtFirstYield, slowPulls)
	}
}

// waitForGoroutines polls until the goroutine count returns to the
// baseline, failing after two seconds — the pool-drain assertion.
func waitForGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Errorf("goroutines after %s: %d (baseline %d) — pool leak", what, got, base)
	}
}

// TestResultsCancelMidYield cancels a stream from inside the consuming
// range: the next yield delivers the context error, the sequence ends,
// and no fan-out worker outlives it (run with -race).
func TestResultsCancelMidYield(t *testing.T) {
	c := pagingCorpus(t)
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot()}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	var finalErr error
	for _, err := range c.Results(ctx, req) {
		if err != nil {
			finalErr = err
			continue
		}
		yields++
		cancel()
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("cancelled stream yielded error %v, want context.Canceled", finalErr)
	}
	if yields != 1 {
		t.Errorf("stream yielded %d meets after mid-yield cancel, want 1", yields)
	}
	waitForGoroutines(t, base, "mid-yield cancel")

	// A consumer breaking out of the range (the pushed-down limit) also
	// leaves no workers behind.
	n := 0
	for _, err := range c.Results(context.Background(), req) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	waitForGoroutines(t, base, "early break")

	// A context cancelled before the stream starts yields the error
	// first.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	for _, err := range c.Results(pre, req) {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled stream yielded %v", err)
		}
	}
	waitForGoroutines(t, base, "pre-cancelled stream")
}

// TestResultsRejectsQueryLanguage pins error delivery on the streaming
// surface: query text the parser rejects arrives as the sequence's only
// yield, before any member runs; text it accepts streams like terms.
func TestResultsRejectsQueryLanguage(t *testing.T) {
	c := pagingCorpus(t)
	seen := 0
	for _, err := range c.Results(context.Background(), Request{Query: "SELECT tag(e) FROM"}) {
		seen++
		var perr *query.Error
		if !errors.As(err, &perr) {
			t.Fatalf("malformed query-language request yielded %v", err)
		}
	}
	if seen != 1 {
		t.Errorf("error sequence yielded %d times, want 1", seen)
	}
	if got := collectResults(t, c, Request{Query: "SELECT tag(e) FROM //year AS e", Limit: 3}); len(got) != 3 {
		t.Errorf("query-language request streamed %d meets, want 3", len(got))
	}
}

// TestStaleCursorAfterMutation pins the cursor-stability satellite: a
// cursor pages on fine while the corpus is unchanged, and fails with
// ErrStaleCursor — on Run, Results and the query-language path — once
// any mutation re-ranks the answer set. Database cursors never go
// stale: a loaded document is immutable.
func TestStaleCursorAfterMutation(t *testing.T) {
	ctx := context.Background()
	c := pagingCorpus(t)
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot(), Limit: 3}
	first, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.NextCursor == "" {
		t.Fatal("first page minted no cursor")
	}
	next := req
	next.Cursor = first.NextCursor
	if _, err := c.Run(ctx, next); err != nil {
		t.Fatalf("pre-mutation page: %v", err)
	}

	extra, err := fromDocument(bigBib(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("extra", extra); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, next); !errors.Is(err, ErrStaleCursor) {
		t.Errorf("post-mutation Run = %v, want ErrStaleCursor", err)
	}
	sawStale := false
	for _, err := range c.Results(ctx, next) {
		if errors.Is(err, ErrStaleCursor) {
			sawStale = true
		}
	}
	if !sawStale {
		t.Error("post-mutation Results did not yield ErrStaleCursor")
	}

	// Query-language pagination is generation-checked too.
	qreq := Request{Query: "SELECT tag(e) FROM //author AS e", Limit: 2}
	firstQ, err := c.Run(ctx, qreq)
	if err != nil {
		t.Fatal(err)
	}
	if firstQ.NextCursor == "" {
		t.Fatal("query page minted no cursor")
	}
	nextQ := qreq
	nextQ.Cursor = firstQ.NextCursor
	if !c.Remove("extra") {
		t.Fatal("Remove failed")
	}
	if _, err := c.Run(ctx, nextQ); !errors.Is(err, ErrStaleCursor) {
		t.Errorf("post-removal query Run = %v, want ErrStaleCursor", err)
	}

	// A Database cannot mutate; its cursors always resume.
	db, err := fromDocument(bigBib(30))
	if err != nil {
		t.Fatal(err)
	}
	dreq := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot(), Limit: 2}
	p1, err := db.Run(ctx, dreq)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NextCursor == "" {
		t.Fatal("database page minted no cursor")
	}
	dreq.Cursor = p1.NextCursor
	if _, err := db.Run(ctx, dreq); err != nil {
		t.Errorf("database cursor resume: %v", err)
	}
}

// TestResultsStatsPublishedBeforeFirstYield pins the StreamStats
// contract the NDJSON trailer depends on: the counters are complete by
// the time the first meet arrives.
func TestResultsStatsPublishedBeforeFirstYield(t *testing.T) {
	c := pagingCorpus(t)
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot(), Limit: 2}
	full, err := c.Run(context.Background(), Request{Terms: req.Terms, Options: req.Options})
	if err != nil {
		t.Fatal(err)
	}
	seq, stats := c.ResultsWithStats(context.Background(), req)
	checked := false
	n := 0
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		if !checked {
			checked = true
			if stats.Total != len(full.Meets) {
				t.Errorf("stats.Total = %d at first yield, want %d", stats.Total, len(full.Meets))
			}
			if !stats.Truncated || stats.NextCursor == "" {
				t.Errorf("stats at first yield = %+v, want truncated with cursor", *stats)
			}
		}
		n++
	}
	if n != req.Limit {
		t.Errorf("limited stream yielded %d, want %d", n, req.Limit)
	}
	if !checked {
		t.Fatal("stream yielded nothing")
	}
}

// TestQueryRequestDeadline pins that a deadline reaches a
// query-language request the way it reaches a term request: the
// lowering looks at the context per variable, per conjunct and every
// few thousand filtered nodes, the roll-up per level, so 2 ms against a
// document that takes a hundred to answer comes back as the deadline's
// error, and soon.
func TestQueryRequestDeadline(t *testing.T) {
	db, err := fromDocument(bigBib(50000))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Limit: 1, Query: `SELECT meet(a, y; EXCLUDE /bib) FROM //cdata AS a, //cdata AS y
		WHERE a CONTAINS 'Author' AND y CONTAINS '19'`}
	if res, err := db.Run(context.Background(), req); err != nil || len(res.Meets) != 1 || !res.Truncated {
		t.Fatalf("without a deadline: %+v, %v", res, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = db.Run(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("2 ms deadline: %v after %v, want context.DeadlineExceeded", err, time.Since(start))
	}
	if took := time.Since(start); took > 50*time.Millisecond && !raceEnabled {
		t.Errorf("2 ms deadline honoured after %v", took)
	}
}
