package core

import (
	"context"
	"math/rand"
	"testing"
)

// TestMeetIntoAllocs pins the columnar output: into a warm Answers the
// roll-up writes its rows and witnesses without allocating, and the
// scratch comes from the pool, so a meet allocates at most the copy of
// its unmatched inputs — nothing when there are none.
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
		un, err := MeetInto(ctx, s, sets, c.opt, &a)
		if err != nil || len(a.Rows) == 0 {
			t.Fatalf("%s: %d rows, err = %v", c.name, len(a.Rows), err)
		}
		most := 0.0
		if len(un) > 0 {
			most, withUnmatched = 1, withUnmatched+1
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := MeetInto(ctx, s, sets, c.opt, &a); err != nil {
				t.Fatal(err)
			}
		})
		if got > most {
			t.Errorf("%s: MeetInto into a warm Answers of %d rows, %d unmatched, allocates %.0f/op, pinned at <= %.0f",
				c.name, len(a.Rows), len(un), got, most)
		}
	}
	if withUnmatched == 0 || withUnmatched == 3 {
		t.Fatalf("%d of 3 cases leave inputs unmatched: the pin should see both kinds", withUnmatched)
	}
}
