package ncq

// Pool-safety tests for the member buffers: a member's answer lives in
// pooled columns (memberBuf) that the next request reuses, so a meet
// that has been yielded must own everything it holds, and a request
// that ends early — a break, a cancel, a failing member — must hand
// its buffers back in a state the next request cannot tell from new.
// Run them with -race too.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ncq/internal/core"
)

// cloneMeet deep-copies a yielded meet: what the caller holds at the
// moment of the yield.
func cloneMeet(m CorpusMeet) CorpusMeet {
	m.Witnesses = slices.Clone(m.Witnesses)
	if m.Projected != nil {
		p := *m.Projected
		m.Projected = &p
	}
	return m
}

// TestHeldMeetsOutlivePoolReuse holds every meet of a full Results
// drain and of a Run page while 50 other requests, in parallel, borrow
// the pooled buffers those meets were rendered from: the held meets
// must still equal the copies taken when they were yielded.
func TestHeldMeetsOutlivePoolReuse(t *testing.T) {
	ctx := context.Background()
	c := pagingCorpus(t)
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot()}
	var held, copies []CorpusMeet
	for m, err := range c.Results(ctx, req) {
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, m)
		copies = append(copies, cloneMeet(m))
	}
	page, err := c.Run(ctx, Request{Terms: []string{"Author2", "199"}, Options: ExcludeRoot(), Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	var pageCopies []CorpusMeet
	for _, m := range page.Meets {
		pageCopies = append(pageCopies, cloneMeet(m))
	}
	if len(held) == 0 || len(page.Meets) == 0 {
		t.Fatalf("%d held meets and a page of %d: the test checks nothing", len(held), len(page.Meets))
	}

	// The 50 requests vary terms, limit and form; each must also answer
	// what it answers alone, so a buffer handed back while its meets
	// were still being rendered shows here. Each consumer gives up the
	// processor between meets, so the drains interleave on one CPU too.
	others := make([]Request, 50)
	wants := make([][]CorpusMeet, 50)
	for i := range others {
		others[i] = Request{Terms: []string{fmt.Sprintf("Author%d", i%7), "19"}, Limit: i % 4}
		if i%3 == 0 {
			others[i] = Request{Query: "SELECT meet(a, y) FROM //cdata AS a, //cdata AS y WHERE a CONTAINS 'Author' AND y CONTAINS '199'"}
		}
		if i%5 == 0 {
			others[i] = Request{Query: "SELECT tag(e) FROM //year AS e"}
		}
		wants[i] = collectResults(t, c, others[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(others))
	for i, other := range others {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []CorpusMeet
			for m, err := range c.Results(ctx, other) {
				if err != nil {
					errs <- err
					return
				}
				got = append(got, m)
				runtime.Gosched()
			}
			if !reflect.DeepEqual(got, wants[i]) {
				errs <- fmt.Errorf("request %d answered otherwise in parallel than alone (%d and %d meets)", i, len(got), len(wants[i]))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !reflect.DeepEqual(held, copies) {
		t.Error("meets held from a full drain changed while other requests reused the pool")
	}
	if !reflect.DeepEqual(page.Meets, pageCopies) {
		t.Error("meets held from a Run page changed while other requests reused the pool")
	}
}

// errMemberFailed is what failingCtx reports once its calls run out.
var errMemberFailed = errors.New("member failed")

// failingCtx is a context whose Err turns into errMemberFailed after
// left calls: every context check of the fan-out — between members,
// per located term, before and inside a member's roll-up — is a place
// the request can fail, with the members before it already built.
type failingCtx struct {
	context.Context
	left atomic.Int32
}

func (c *failingCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return errMemberFailed
	}
	return nil
}

// TestPoolAfterAbandonedRequests ends requests early in every way a
// caller can — a break after the first meet, a cancel mid-drain, a
// member failing at each point of the fan-out — and holds the next
// request on the same corpus to a fresh corpus's answer.
func TestPoolAfterAbandonedRequests(t *testing.T) {
	ctx := context.Background()
	req := Request{Terms: []string{"Author1", "199"}, Options: ExcludeRoot()}
	want, err := pagingCorpus(t).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	c := pagingCorpus(t)
	c.SetParallelism(1) // members build in order, so a failure leaves some built
	check := func(after string) {
		t.Helper()
		got, err := c.Run(ctx, req)
		if err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		if !reflect.DeepEqual(got.Meets, want.Meets) || got.Unmatched != want.Unmatched {
			t.Fatalf("after %s: %d meets (%d unmatched), a fresh corpus answers %d (%d)",
				after, len(got.Meets), got.Unmatched, len(want.Meets), want.Unmatched)
		}
	}

	for _, err := range c.Results(ctx, req) {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	check("a break after the first meet")

	cctx, cancel := context.WithCancel(ctx)
	n := 0
	for _, err := range c.Results(cctx, req) {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			continue
		}
		if n++; n == 3 {
			cancel()
		}
	}
	cancel()
	check("a cancel mid-drain")

	inMember := 0
	for calls := range int32(60) {
		fc := &failingCtx{Context: ctx}
		fc.left.Store(calls)
		_, err := c.Run(fc, req)
		switch {
		case err == nil:
		case !errors.Is(err, errMemberFailed):
			t.Fatalf("a failing member's Run = %v", err)
		case strings.Contains(err.Error(), "corpus \""):
			inMember++
		}
		check(fmt.Sprintf("a member failing at context check %d", calls))
	}
	if inMember == 0 {
		t.Fatal("no failure landed inside a member: the test checks nothing")
	}
}

// TestHugeWitnessArenaLeavesPool runs answers whose columns outgrow
// the pool's bound — a root meet of 100,000 witnesses on one row, and
// the same inputs left all 100,000 unmatched by MaxLift — and checks
// that no pooled member buffer keeps them: one huge answer must not pin
// its columns for every later small one.
func TestHugeWitnessArenaLeavesPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops at random under -race")
	}
	db, err := OpenString("<r>" + strings.Repeat("<a>x</a>", 100_000) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(context.Background(), Request{Terms: []string{"x"}})
	if err != nil || len(res.Meets) != 1 || len(res.Meets[0].Witnesses) != 100_000 {
		t.Fatalf("want one meet of 100,000 witnesses, got %d meets (%v)", len(res.Meets), err)
	}
	checkMemberBufBound(t)
	res, err = db.Run(context.Background(), Request{Terms: []string{"x"}, Options: NewOptions(OptionSpec{MaxLift: 1})})
	if err != nil || len(res.Meets) != 0 || len(res.UnmatchedNodes) != 100_000 {
		t.Fatalf("want 100,000 unmatched, got %d meets, %d unmatched (%v)", len(res.Meets), len(res.UnmatchedNodes), err)
	}
	checkMemberBufBound(t)
}

// checkMemberBufBound takes a few member buffers from the pool and
// requires every column of each within core.MaxPooledRows.
func checkMemberBufBound(t *testing.T) {
	t.Helper()
	var got []*memberBuf
	for range 4 {
		b := getMemberBuf()
		got = append(got, b)
		if max(cap(b.Rows), cap(b.Wits), cap(b.Unmatched)) > core.MaxPooledRows {
			t.Errorf("the pool handed out columns of %d rows, %d witnesses, %d unmatched, bound %d",
				cap(b.Rows), cap(b.Wits), cap(b.Unmatched), core.MaxPooledRows)
		}
	}
	for _, b := range got {
		putMemberBuf(b)
	}
}
