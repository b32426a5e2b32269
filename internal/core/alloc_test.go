package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// TestMeetIntoAllocs pins the columnar output: into a warm Answers the
// roll-up writes its rows, witnesses and unmatched inputs without
// allocating, and the scratch comes from the pool, so a meet allocates
// nothing, whether or not some inputs stay unmatched.
func TestMeetIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops at random under -race")
	}
	r := rand.New(rand.NewSource(38))
	s := largeStore(t, r)
	sets := largeTermSets(r, s.Len())
	ctx := context.Background()
	withUnmatched := 0
	for _, c := range []struct {
		name string
		opt  *Options
	}{
		{"unbounded", nil},
		{"max_lift 1", &Options{MaxLift: 1}},
		{"max_lift 2, root excluded", &Options{MaxLift: 2, Exclude: ExcludeRoot(s).Exclude}},
	} {
		var a Answers
		if err := MeetInto(ctx, s, sets, c.opt, &a); err != nil || len(a.Rows) == 0 {
			t.Fatalf("%s: %d rows, err = %v", c.name, len(a.Rows), err)
		}
		if len(a.Unmatched) > 0 {
			withUnmatched++
		}
		got := testing.AllocsPerRun(50, func() {
			if err := MeetInto(ctx, s, sets, c.opt, &a); err != nil {
				t.Fatal(err)
			}
		})
		if got > 0 {
			t.Errorf("%s: MeetInto into a warm Answers of %d rows, %d unmatched, allocates %.0f/op, pinned at 0",
				c.name, len(a.Rows), len(a.Unmatched), got)
		}
	}
	if withUnmatched == 0 || withUnmatched == 3 {
		t.Fatalf("%d of 3 cases leave inputs unmatched: the pin should see both kinds", withUnmatched)
	}
}

// TestHugeWitnessArenaLeavesPool holds MeetMultiContext's pool to its
// bound on every column: after one meet of 100,000 witnesses on a
// single row, no pooled Answers keeps the witness arena, and after the
// same inputs left all 100,000 unmatched by MaxLift, none keeps the
// unmatched column.
func TestHugeWitnessArenaLeavesPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops at random under -race")
	}
	doc, err := xmltree.Parse(strings.NewReader("<r>" + strings.Repeat("<a>x</a>", 100_000) + "</r>"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	var set []bat.OID
	for o := bat.OID(1); int(o) <= s.Len(); o++ {
		if s.Label(o) == xmltree.CDataLabel {
			set = append(set, o)
		}
	}
	res, un, err := MeetMultiContext(context.Background(), s, [][]bat.OID{set}, nil)
	if err != nil || len(res) != 1 || len(res[0].Witnesses) != len(set) || len(un) != 0 {
		t.Fatalf("want one meet of %d witnesses, got %d meets, %d unmatched (%v)", len(set), len(res), len(un), err)
	}
	checkPoolBound(t)
	res, un, err = MeetMultiContext(context.Background(), s, [][]bat.OID{set}, &Options{MaxLift: 1})
	if err != nil || len(res) != 0 || len(un) != len(set) {
		t.Fatalf("want %d unmatched, got %d meets, %d unmatched (%v)", len(set), len(res), len(un), err)
	}
	checkPoolBound(t)
}

// checkPoolBound takes a few Answers from MeetMultiContext's pool and
// requires each column of every one within MaxPooledRows.
func checkPoolBound(t *testing.T) {
	t.Helper()
	var got []*Answers
	for range 4 {
		a := answersPool.Get().(*Answers)
		got = append(got, a)
		if max(cap(a.Rows), cap(a.Wits), cap(a.Unmatched)) > MaxPooledRows {
			t.Errorf("the pool handed out columns of %d rows, %d witnesses, %d unmatched, bound %d",
				cap(a.Rows), cap(a.Wits), cap(a.Unmatched), MaxPooledRows)
		}
	}
	for _, a := range got {
		answersPool.Put(a)
	}
}
