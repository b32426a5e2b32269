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

// bigStore builds a deep, wide document so the roll-up has many
// contracted levels to check the context between.
func bigStore(t testing.TB) *monetx.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 40; i++ {
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
	s := bigStore(t)
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
func TestMeetContextBackgroundMatchesPlain(t *testing.T) {
	s := bigStore(t)
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

// TestMeetScratchReuse hammers one store through the pooled scratch to
// verify recycled buffers never leak state between queries.
func TestMeetScratchReuse(t *testing.T) {
	s := fig1Store(t)
	want, wantUn, err := meetOIDs(s, []bat.OID{8, 12, 19}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, gotUn, err := meetOIDs(s, []bat.OID{8, 12, 19}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) || len(gotUn) != len(wantUn) {
			t.Fatalf("iteration %d: scratch reuse changed the answer: %+v vs %+v", i, got, want)
		}
		// Interleave a differently shaped query on the same pool.
		if _, _, err := meetMulti(s, [][]bat.OID{{15}, {15, 17}}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSortRuns pins the one bucket-ordering routine against the sort
// it replaced: for arbitrary entries — cur values no preorder tree
// could produce included — sortRuns must leave exactly what a stable
// comparison sort under cmpEntry leaves (stable, because sortRuns is:
// that decides the order of entries the comparator calls equal, which
// slices.SortFunc leaves open). Each input is sorted twice through one
// scratch, a prefix and then the whole, so the pooled merge buffer and
// run boundaries are reused across calls of different lengths.
func FuzzSortRuns(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 1, 0}, uint8(1))
	f.Add([]byte{1, 1, 0, 2, 2, 0, 3, 3, 0, 1, 4, 1, 2, 5, 1, 3, 6, 1}, uint8(3))          // two interleaved runs
	f.Add([]byte{9, 1, 0, 8, 2, 0, 7, 3, 0, 6, 4, 0, 5, 5, 0, 4, 6, 0, 3, 7, 0}, uint8(2)) // descending: every entry its own run
	f.Add([]byte{5, 5, 0, 5, 5, 1, 5, 5, 2, 1, 9, 0, 5, 5, 3, 1, 9, 1}, uint8(4))          // equal keys, distinct lifts
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		es := make([]entry, len(data)/3)
		for i := range es {
			es[i] = entry{cur: bat.OID(data[3*i]), orig: bat.OID(data[3*i+1]), lifts: int32(data[3*i+2])}
		}
		sc := new(scratch)
		prefix := es[:min(int(cut), len(es))]
		for _, in := range [][]entry{prefix, es} {
			want := slices.Clone(in)
			slices.SortStableFunc(want, cmpEntry)
			got := slices.Clone(in)
			sc.sortRuns(got)
			if !slices.Equal(got, want) {
				t.Fatalf("sortRuns(%v)\n got %v\nwant %v", in, got, want)
			}
		}
	})
}
