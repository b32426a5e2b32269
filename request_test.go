package ncq

// Tests for the unified Request/Result execution API: equivalence with
// the legacy entry points, pushed-down limits, cursor pagination, and
// context cancellation through the member fan-out.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// pagingCorpus builds a membership large enough that pagination and
// ranking have something to cut: four plain members and one sharded
// member, all with overlapping terms.
func pagingCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	for i := 0; i < 4; i++ {
		db, err := fromDocument(bigBib(30))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fmt.Sprintf("doc%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.AddSharded("sharded", bigBib(40), 4); err != nil {
		t.Fatal(err)
	}
	return c
}

// expectedTermMeets computes a database's term meets through the
// document-order path (per-term materialised full-text hits + MeetOf),
// which shares neither locate nor the ranking with
// the unified Run, so the equivalence assertions below compare two
// independent implementations.
func expectedTermMeets(t *testing.T, db *Database, opt *Options, terms []string) ([]Meet, []NodeID) {
	t.Helper()
	sets := make([][]NodeID, 0, len(terms))
	for _, term := range terms {
		var owners []NodeID
		for _, h := range db.index.SearchSubstring(term) {
			owners = append(owners, h.Owner)
		}
		sets = append(sets, owners)
	}
	meets, unmatched, err := db.MeetOf(context.Background(), opt, sets...)
	if err != nil {
		t.Fatal(err)
	}
	return meets, unmatched
}

// mergeShardMeets hand-rolls a corpus answer: what meets yields for
// every shard of every named member, tagged and sorted by the
// documented (distance, source, shard, node) order.
func mergeShardMeets(t *testing.T, c *Corpus, names []string, meets func(*Database) []Meet) []CorpusMeet {
	t.Helper()
	var out []CorpusMeet
	for _, name := range names {
		dbs, ok := c.Shards(name)
		if !ok {
			t.Fatalf("member %q vanished", name)
		}
		for si, sdb := range dbs {
			shard := 0
			if len(dbs) > 1 {
				shard = si + 1
			}
			for _, m := range meets(sdb) {
				out = append(out, CorpusMeet{Source: name, Shard: shard, Meet: m})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return RankLess(&out[i], &out[j]) })
	return out
}

// expectedCorpusMeets is the independent per-shard term meets of every
// member, merged by hand, plus their unmatched inputs.
func expectedCorpusMeets(t *testing.T, c *Corpus, names []string, opt *Options, terms []string) ([]CorpusMeet, int) {
	t.Helper()
	unmatched := 0
	out := mergeShardMeets(t, c, names, func(db *Database) []Meet {
		meets, un := expectedTermMeets(t, db, opt, terms)
		unmatched += len(un)
		return meets
	})
	return out, unmatched
}

// answerMeets renders a Database.Query answer — the single-document
// evaluator's rows — as the meets the pipeline answers the same query
// with: one per row, projected text attached when the select list asks
// for any, stably ranked by (distance, node).
func answerMeets(ans *Answer) []Meet {
	var value, xml bool
	for _, col := range ans.Columns {
		value = value || col == "value"
		xml = xml || col == "xml"
	}
	out := make([]Meet, len(ans.Rows))
	for i, r := range ans.Rows {
		out[i] = Meet{Node: r.OID, Tag: r.Tag, Path: r.Path, Witnesses: r.Witnesses, Distance: r.Distance}
		if value || xml {
			out[i].Projected = &Projection{Value: r.Value, XML: r.XML}
		}
	}
	return RankMeets(out)
}

// expectedQueryMeets is expectedCorpusMeets for a query-language
// request: every shard's Database.Query answer, merged by hand.
func expectedQueryMeets(t *testing.T, c *Corpus, names []string, src string) []CorpusMeet {
	t.Helper()
	return mergeShardMeets(t, c, names, func(db *Database) []Meet {
		ans, err := db.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		return answerMeets(ans)
	})
}

// TestRunEquivalence pins the acceptance contract of the redesign: Run
// returns exactly the answer sets the document-order path produces
// (computed independently via MeetOf and a hand-rolled merge).
func TestRunEquivalence(t *testing.T) {
	c := pagingCorpus(t)
	ctx := context.Background()
	terms := []string{"Author1", "199"}

	// Corpus-wide: Run == independently merged per-shard answers.
	want, _ := expectedCorpusMeets(t, c, c.Names(), ExcludeRoot(), terms)
	res, err := c.Run(ctx, Request{Terms: terms, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Meets) == 0 || !reflect.DeepEqual(res.Meets, want) {
		t.Errorf("corpus Run != independent merge: %d vs %d meets", len(res.Meets), len(want))
	}

	// Named member (sharded): same, restricted to one logical name.
	wantIn, wantUn := expectedCorpusMeets(t, c, []string{"sharded"}, ExcludeRoot(), terms)
	resIn, err := c.Run(ctx, Request{Doc: "sharded", Terms: terms, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resIn.Meets) == 0 || !reflect.DeepEqual(resIn.Meets, wantIn) {
		t.Errorf("sharded Run != independent merge: %d vs %d meets", len(resIn.Meets), len(wantIn))
	}
	if resIn.Unmatched != wantUn {
		t.Errorf("sharded Run unmatched = %d, independent count %d", resIn.Unmatched, wantUn)
	}

	// Single database: same answer set (Locate + MeetOf reports
	// document order, Run reports ranked order).
	db := fig1DB(t)
	dbLegacy, dbUn, err := locateMeet(db, nil, "Bit", "1999")
	if err != nil {
		t.Fatal(err)
	}
	dbRes, err := db.Run(ctx, Request{Terms: []string{"Bit", "1999"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dbRes.Meets) != len(dbLegacy) {
		t.Fatalf("database Run returned %d meets, MeetOf %d", len(dbRes.Meets), len(dbLegacy))
	}
	byNode := map[NodeID]Meet{}
	for _, m := range dbRes.Meets {
		byNode[m.Node] = m.Meet
	}
	for _, m := range dbLegacy {
		if !reflect.DeepEqual(byNode[m.Node], m) {
			t.Errorf("database Run missing meet %+v", m)
		}
	}
	if !reflect.DeepEqual(dbRes.UnmatchedNodes, dbUn) {
		t.Errorf("unmatched = %v vs %v", dbRes.UnmatchedNodes, dbUn)
	}

	// Query-language: Run == the independently merged per-shard answers
	// of the single-document evaluator.
	const q = `SELECT meet(e1, e2; EXCLUDE /bib)
		FROM //author/cdata AS e1, //year/cdata AS e2
		WHERE e1 CONTAINS 'Author1' AND e2 CONTAINS '1991'`
	wantQ := expectedQueryMeets(t, c, c.Names(), q)
	resQ, err := c.Run(ctx, Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantQ) == 0 || !reflect.DeepEqual(resQ.Meets, wantQ) {
		t.Errorf("corpus query Run != independent merge (%d vs %d meets)", len(resQ.Meets), len(wantQ))
	}
}

// TestRunLimitPushdown pins that the pushed-down limit returns exactly
// the top-K answers a full rank-then-truncate would, for both modes.
func TestRunLimitPushdown(t *testing.T) {
	c := pagingCorpus(t)
	ctx := context.Background()
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot()}
	full, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Meets) < 10 {
		t.Fatalf("workload too small: %d meets", len(full.Meets))
	}
	if full.Truncated || full.NextCursor != "" {
		t.Errorf("unlimited run reported truncation: %+v", full)
	}
	for _, k := range []int{1, 2, 3, 7, len(full.Meets), len(full.Meets) + 10} {
		lim := req
		lim.Limit = k
		res, err := c.Run(ctx, lim)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Meets
		if k < len(want) {
			want = want[:k]
		}
		if !reflect.DeepEqual(res.Meets, want) {
			t.Errorf("limit %d: top-K differs from truncate-after-rank", k)
		}
		if wantTrunc := k < len(full.Meets); res.Truncated != wantTrunc {
			t.Errorf("limit %d: truncated = %t, want %t", k, res.Truncated, wantTrunc)
		}
		if res.Truncated && res.NextCursor == "" {
			t.Errorf("limit %d: truncated page without cursor", k)
		}
	}

	// Query-language rows page through the same window.
	qreq := Request{Query: "SELECT tag(e) FROM //author AS e"}
	fullQ, err := c.Run(ctx, qreq)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 33} {
		lim := qreq
		lim.Limit = k
		res, err := c.Run(ctx, lim)
		if err != nil {
			t.Fatal(err)
		}
		want := fullQ.Meets
		if k < len(want) {
			want = want[:k]
		}
		if !reflect.DeepEqual(res.Meets, want) {
			t.Errorf("query limit %d: rows differ from truncate-after-evaluate", k)
		}
	}
}

// TestRunCursorPagination walks a paginated run to exhaustion and pins
// that the concatenated pages reproduce the full ranked answer set.
func TestRunCursorPagination(t *testing.T) {
	c := pagingCorpus(t)
	ctx := context.Background()
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot(), Limit: 4}
	full, err := c.Run(ctx, Request{Terms: req.Terms, Options: req.Options})
	if err != nil {
		t.Fatal(err)
	}
	var pages int
	var collected []CorpusMeet
	cursor := ""
	for {
		page := req
		page.Cursor = cursor
		res, err := c.Run(ctx, page)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Meets) > req.Limit {
			t.Fatalf("page %d has %d meets (limit %d)", pages, len(res.Meets), req.Limit)
		}
		collected = append(collected, res.Meets...)
		pages++
		if res.NextCursor == "" {
			if res.Truncated {
				t.Error("truncated final page without cursor")
			}
			break
		}
		cursor = res.NextCursor
		if pages > len(full.Meets) {
			t.Fatal("pagination does not terminate")
		}
	}
	if !reflect.DeepEqual(collected, full.Meets) {
		t.Errorf("paginated walk diverged: %d collected vs %d full", len(collected), len(full.Meets))
	}
	if want := (len(full.Meets) + req.Limit - 1) / req.Limit; pages != want {
		t.Errorf("pages = %d, want %d", pages, want)
	}

	// A cursor is bound to its request: different terms reject it.
	foreign := req
	foreign.Terms = []string{"Author2", "199"}
	first, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	foreign.Cursor = first.NextCursor
	if _, err := c.Run(ctx, foreign); !errors.Is(err, ErrBadCursor) {
		t.Errorf("foreign cursor error = %v, want ErrBadCursor", err)
	}
	garbage := req
	garbage.Cursor = "not-a-cursor!"
	if _, err := c.Run(ctx, garbage); !errors.Is(err, ErrBadCursor) {
		t.Errorf("garbage cursor error = %v, want ErrBadCursor", err)
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	db := fig1DB(t)
	cases := []struct {
		name string
		req  Request
	}{
		{"both modes", Request{Terms: []string{"a"}, Query: "SELECT tag(e) FROM //x AS e"}},
		{"empty", Request{}},
		{"negative limit", Request{Terms: []string{"a"}, Limit: -1}},
		{"options on query", Request{Query: "SELECT tag(e) FROM //x AS e", Options: ExcludeRoot()}},
		{"empty term", Request{Terms: []string{"a", ""}}},
		{"blank query", Request{Query: " \n"}},
		{"vague on query", Request{Query: "SELECT tag(e) FROM //x AS e", Vague: &Vague{}}},
	}
	for _, tc := range cases {
		if _, err := db.Run(ctx, tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if tc.req.Validate() == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
	// Options that set nothing are no options, on a query-language
	// request too.
	if _, err := db.Run(ctx, Request{Query: "SELECT tag(e) FROM //x AS e", Options: Within(0)}); err != nil {
		t.Errorf("zero options on query: %v", err)
	}
	// A Database holds one anonymous document; naming one is an
	// unknown-document error, uniform with the corpus surface.
	if _, err := db.Run(ctx, Request{Doc: "x", Terms: []string{"a"}}); !errors.Is(err, ErrUnknownDoc) {
		t.Errorf("Doc on Database = %v, want ErrUnknownDoc", err)
	}
	c := NewCorpus()
	if _, err := c.Run(ctx, Request{Doc: "ghost", Terms: []string{"a"}}); !errors.Is(err, ErrUnknownDoc) {
		t.Errorf("unknown corpus doc = %v, want ErrUnknownDoc", err)
	}
}

func TestRunStream(t *testing.T) {
	c := pagingCorpus(t)
	ctx := context.Background()
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot()}
	full, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []CorpusMeet
	for m, err := range c.Results(ctx, req) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, m)
	}
	if !reflect.DeepEqual(streamed, full.Meets) {
		t.Errorf("stream diverged from Run: %d vs %d", len(streamed), len(full.Meets))
	}
	// Early stop: break after two meets.
	n := 0
	for _, err := range c.Results(ctx, req) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("early stop yielded %d meets", n)
	}
	// Query-language requests stream like any other.
	qreq := Request{Query: "SELECT tag(e) FROM //author AS e"}
	fullQ, err := c.Run(ctx, qreq)
	if err != nil {
		t.Fatal(err)
	}
	streamed = nil
	for m, err := range c.Results(ctx, qreq) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, m)
	}
	if len(streamed) == 0 || !reflect.DeepEqual(streamed, fullQ.Meets) {
		t.Errorf("query-language stream diverged from Run: %d vs %d", len(streamed), len(fullQ.Meets))
	}
	// A cancelled context surfaces between yields.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, err = range c.Results(cctx, req) {
		cancel()
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled stream = %v", err)
	}
}

// TestForEachDocCancelMidFlight is the deterministic half of the
// cancellation contract: workers are mid-item when the context dies,
// dispatch stops, the call returns ctx.Err(), and no goroutine leaks
// (forEachDoc drains its pool before returning).
func TestForEachDocCancelMidFlight(t *testing.T) {
	const n, workers = 100, 4
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, n)
	release := make(chan struct{})
	var ran atomic.Int32
	errCh := make(chan error, 1)
	go func() {
		errCh <- forEachDoc(ctx, n, workers, func(i int) error {
			ran.Add(1)
			started <- struct{}{}
			<-release
			return nil
		})
	}()
	for i := 0; i < workers; i++ {
		<-started // all workers are now blocked inside fn
	}
	cancel()
	close(release)
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("forEachDoc = %v, want context.Canceled", err)
	}
	// The dispatcher saw the cancellation; at most one queued item per
	// worker could still have been picked up.
	if got := ran.Load(); got > 2*workers {
		t.Errorf("ran %d items after cancellation (want ≤ %d)", got, 2*workers)
	}
}

// TestCorpusRunCancelMidFanout is the satellite regression: a
// corpus-wide Run over many members is cancelled mid-fan-out, returns
// ctx.Err() well before a full run would complete, and leaks no pool
// goroutines (run with -race).
func TestCorpusRunCancelMidFanout(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 32; i++ {
		db, err := fromDocument(bigBib(200))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fmt.Sprintf("m%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	c.SetParallelism(2)
	req := Request{Terms: []string{"Author", "199"}, Options: ExcludeRoot()}

	// Baseline: one full uncancelled run (also warms every code path).
	start := time.Now()
	if _, err := c.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)

	// A context cancelled before Run starts returns immediately.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := c.Run(pre, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run = %v", err)
	}

	base := runtime.NumGoroutine()
	cancelAfter := baseline / 16
	cancelled := false
	for attempt := 0; attempt < 5 && !cancelled; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(cancelAfter, cancel)
		start = time.Now()
		_, err := c.Run(ctx, req)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if err == nil {
			// The run finished before the cancellation landed; try an
			// earlier cancel.
			cancelAfter /= 2
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Run = %v, want context.Canceled", err)
		}
		if elapsed > baseline*2 {
			t.Errorf("cancelled Run took %v (full run takes %v) — not prompt", elapsed, baseline)
		}
		cancelled = true
	}
	if !cancelled {
		t.Fatal("could not cancel a run mid-fan-out in 5 attempts")
	}
	// No pool goroutine may outlive the cancelled call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Errorf("goroutines after cancelled Run: %d (baseline %d) — pool leak", got, base)
	}
	c.SetParallelism(0)
}

// TestMeetOfTermsSelfMeetOrder pins MeetOf's document order for the
// one ambiguous case: a node hosting both a roll-up meet and a
// degenerate self-meet. The roll-up comes first.
func TestMeetOfTermsSelfMeetOrder(t *testing.T) {
	db, err := OpenString(`<r><a x="Bob Byte"><b>Bob</b><c>Byte</c></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	meets, _, err := locateMeet(db, nil, "Bob", "Byte")
	if err != nil {
		t.Fatal(err)
	}
	if len(meets) != 2 || meets[0].Node != meets[1].Node {
		t.Fatalf("meets = %+v, want two meets at one node", meets)
	}
	if meets[0].Distance != 4 || meets[1].Distance != 0 {
		t.Errorf("order = distances %d,%d; want the roll-up (4) before the self-meet (0)",
			meets[0].Distance, meets[1].Distance)
	}
}

// TestRunElapsed pins that Result carries timing.
func TestRunElapsed(t *testing.T) {
	db := fig1DB(t)
	res, err := db.Run(context.Background(), Request{Terms: []string{"Bit", "1999"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v", res.Elapsed)
	}
}

// TestRequestCanonical pins the cache-key contract: equivalent
// requests collapse onto one encoding, different requests do not.
func TestRequestCanonical(t *testing.T) {
	a := Request{Terms: []string{"x"}, Options: ExcludePattern("//a").ExcludePattern("//b"), Limit: 3}
	b := Request{Terms: []string{"x"}, Options: ExcludePattern("//b").ExcludePattern("//a"), Limit: 3}
	if a.Canonical() != b.Canonical() {
		t.Error("pattern order changed the canonical encoding")
	}
	q1 := Request{Query: "SELECT  tag(e)\n FROM //x AS e"}
	q2 := Request{Query: "SELECT tag(e) FROM //x AS e"}
	if q1.Canonical() != q2.Canonical() {
		t.Error("query whitespace changed the canonical encoding")
	}
	// Options that set nothing key and page as no options.
	for _, o := range []*Options{{}, Within(0).MaxLift(0)} {
		bare, zero := Request{Terms: []string{"x"}, Limit: 3}, Request{Terms: []string{"x"}, Options: o, Limit: 3}
		if bare.Canonical() != zero.Canonical() {
			t.Errorf("%+v: canonical %q, without the unset options %q", o.Spec(), zero.Canonical(), bare.Canonical())
		}
	}
	other := Request{Terms: []string{"y"}, Limit: 3}
	if a.Canonical() == other.Canonical() {
		t.Error("different requests share a canonical encoding")
	}
	// Pages of one request differ only in the offset.
	paged := a
	paged.Cursor = encodeCursor(3, paged.fingerprint(), 0)
	if a.Canonical() == paged.Canonical() {
		t.Error("cursor page shares the first page's encoding")
	}
}
