package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// bigStore builds a deep, wide document: a root over the given number
// of branches, each a chain of twelve levels down to a leaf — fifteen
// nodes a branch.
func bigStore(t testing.TB, branches int) *monetx.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < branches; i++ {
		b.WriteString(fmt.Sprintf("<branch n=\"%d\">", i))
		for d := 0; d < 12; d++ {
			b.WriteString("<level>")
		}
		b.WriteString("<leaf>payload</leaf>")
		for d := 0; d < 12; d++ {
			b.WriteString("</level>")
		}
		b.WriteString("</branch>")
	}
	b.WriteString("</root>")
	doc, err := xmltree.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMeetContextCancelled pins the satellite contract: an already
// cancelled context interrupts the roll-up of one large member
// mid-meet instead of running it to completion.
func TestMeetContextCancelled(t *testing.T) {
	s := bigStore(t, 40)
	oids := make([]bat.OID, 0, s.Len())
	for o := 1; o <= s.Len(); o++ {
		oids = append(oids, bat.OID(o))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MeetMultiContext(ctx, s, [][]bat.OID{oids}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeetMultiContext(cancelled, one set) err = %v, want context.Canceled", err)
	}
	if _, _, err := MeetMultiContext(ctx, s, [][]bat.OID{oids[:10], oids[10:]}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeetMultiContext(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestMeetContextBackgroundMatchesPlain pins that the context is only
// ever checked: a live, cancellable one answers what Background does.
// flipCtx is a context whose Err reports cancellation from its flipAt-th
// call on, counting the calls.
type flipCtx struct {
	context.Context
	calls, flipAt int
}

func (c *flipCtx) Err() error {
	if c.calls++; c.calls >= c.flipAt {
		return context.Canceled
	}
	return nil
}

// TestMeetContextPolledMidPass pins the cadence: the context is polled
// once before the pass and then every pollEvery inputs, so a
// cancellation that lands mid-pass stops the member at the next poll.
func TestMeetContextPolledMidPass(t *testing.T) {
	s := bigStore(t, 700) // 10,501 nodes: polls before the pass and at inputs 4,096 and 8,192
	oids := make([]bat.OID, 0, s.Len())
	for o := 1; o <= s.Len(); o++ {
		oids = append(oids, bat.OID(o))
	}
	polls := 1 + s.Len()/pollEvery
	for flipAt := 2; flipAt <= polls; flipAt++ {
		ctx := &flipCtx{Context: context.Background(), flipAt: flipAt}
		if _, _, err := MeetMultiContext(ctx, s, [][]bat.OID{oids}, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err flipping on call %d: err = %v, want context.Canceled", flipAt, err)
		}
		if ctx.calls != flipAt {
			t.Fatalf("Err flipping on call %d: the pass went on to call %d", flipAt, ctx.calls)
		}
	}
	ctx := &flipCtx{Context: context.Background(), flipAt: polls + 1}
	if _, _, err := MeetMultiContext(ctx, s, [][]bat.OID{oids}, nil); err != nil || ctx.calls != polls {
		t.Fatalf("Err flipping after the last poll: err = %v after %d calls, want nil after %d", err, ctx.calls, polls)
	}
}

// TestMeetContextPolledOverSelfMeets pins the same cadence when every
// input is a self-meet: two or three copies of one set of all 10,501
// OIDs, merged with two pointers or through the heap, count each OID
// toward the poll although none enters the roll-up.
func TestMeetContextPolledOverSelfMeets(t *testing.T) {
	s := bigStore(t, 700)
	oids := make([]bat.OID, 0, s.Len())
	for o := 1; o <= s.Len(); o++ {
		oids = append(oids, bat.OID(o))
	}
	polls := 1 + s.Len()/pollEvery
	for _, sets := range [][][]bat.OID{{oids, oids}, {oids, oids, oids}} {
		for flipAt := 2; flipAt <= polls; flipAt++ {
			ctx := &flipCtx{Context: context.Background(), flipAt: flipAt}
			if _, _, err := MeetMultiContext(ctx, s, sets, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("%d sets, Err flipping on call %d: err = %v, want context.Canceled", len(sets), flipAt, err)
			}
			if ctx.calls != flipAt {
				t.Fatalf("%d sets, Err flipping on call %d: the pass went on to call %d", len(sets), flipAt, ctx.calls)
			}
		}
		ctx := &flipCtx{Context: context.Background(), flipAt: polls + 1}
		res, _, err := MeetMultiContext(ctx, s, sets, nil)
		if err != nil || ctx.calls != polls || len(res) != s.Len() {
			t.Fatalf("%d sets, Err flipping after the last poll: %d meets, err = %v after %d calls, want %d meets, nil after %d",
				len(sets), len(res), err, ctx.calls, s.Len(), polls)
		}
	}
}

func TestMeetContextBackgroundMatchesPlain(t *testing.T) {
	s := bigStore(t, 40)
	oids := []bat.OID{5, 19, 33, 47, 61}
	a, ua, err := meetOIDs(s, oids, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, ub, err := MeetMultiContext(ctx, s, [][]bat.OID{oids}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(a, b) {
		t.Fatalf("context variant diverged: %+v vs %+v", a, b)
	}
	if len(ua) != len(ub) {
		t.Fatalf("unmatched diverged: %v vs %v", ua, ub)
	}
}

// TestMeetScratchReuse hammers two stores with different path counts
// through the pooled scratch to verify recycled buffers never leak
// state between queries, whichever store the last one ran on.
func TestMeetScratchReuse(t *testing.T) {
	s, big := fig1Store(t), bigStore(t, 3)
	if s.Summary().Len() == big.Summary().Len() {
		t.Fatal("the two stores share a path count")
	}
	bigIn := []bat.OID{14, 15, 29, 44}
	want, wantUn, err := meetOIDs(s, []bat.OID{8, 12, 19}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bigWant, bigWantUn, err := meetOIDs(big, bigIn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bigWant) == 0 {
		t.Fatal("the second store's query has no meet — the case checks nothing")
	}
	for i := 0; i < 50; i++ {
		got, gotUn, err := meetOIDs(s, []bat.OID{8, 12, 19}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) || !slices.Equal(gotUn, wantUn) {
			t.Fatalf("iteration %d: scratch reuse changed the answer: %+v vs %+v", i, got, want)
		}
		// Interleave a differently shaped query on the same pool, then
		// the other store.
		if _, _, err := meetMulti(s, [][]bat.OID{{15}, {15, 17}}, nil); err != nil {
			t.Fatal(err)
		}
		got, gotUn, err = meetOIDs(big, bigIn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, bigWant) || !slices.Equal(gotUn, bigWantUn) {
			t.Fatalf("iteration %d: scratch reuse changed the second store's answer: %+v vs %+v", i, got, bigWant)
		}
	}
}
