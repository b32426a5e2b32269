package ncq

// The member rank order and the page window over the merge: a member
// ranks its rows with a counting sort on the distance, which must be
// the stable (distance, node) sort it stands for, and a cursor's skip
// neither renders the meets it passes nor outlives its context.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ncq/internal/core"
	"ncq/internal/datagen"
	"ncq/internal/query"
)

// stableRankOrder is what rankOrder stands for: the rows' indices
// stably sorted by (distance, node).
func stableRankOrder(rows []core.Row) []int32 {
	idx := make([]int32, len(rows))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		ra, rb := &rows[a], &rows[b]
		return cmp.Or(cmp.Compare(ra.Distance, rb.Distance), cmp.Compare(ra.Meet, rb.Meet))
	})
	return idx
}

// checkRankOrder ranks rows into a buffer padded with junk from a
// previous use, as a pooled one is, and compares with the stable sort.
func checkRankOrder(t testing.TB, what string, rows []core.Row) {
	t.Helper()
	junk := []int32{7, 7, 7, 7, 7, 7, 7, 7}
	got := rankOrder(rows, junk[:3])
	if want := stableRankOrder(rows); !slices.Equal(got, want) {
		t.Fatalf("%s: %d rows ranked %v, the stable sort %v", what, len(rows), got, want)
	}
}

// randomRows draws n rows in node order — repeats included, as a
// rolled-up meet and a self-meet on one node are — with distances
// lo + [0, span].
func randomRows(rnd *rand.Rand, n int, lo int32, span int64) []core.Row {
	rows := make([]core.Row, n)
	node := NodeID(rnd.Intn(3))
	for i := range rows {
		node += NodeID(rnd.Intn(3))
		rows[i] = core.Row{Meet: node, Distance: lo + int32(rnd.Int63n(span+1))}
	}
	return rows
}

func TestRankOrderEqualsStableSort(t *testing.T) {
	checkRankOrder(t, "empty", nil)
	checkRankOrder(t, "one row", []core.Row{{Meet: 4, Distance: 9}})
	rnd := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		what string
		lo   int32
		span int64
	}{
		{"span 0", 5, 0},
		{"span 1", 0, 1},
		{"span 255", 3, 255},
		{"span 256", 0, 256},
		{"span 4095", -20, 4095},
		{"span 65,536", 1, 65536},
		{"span 2^24", 0, 1 << 24},
		{"span 2^31-1", -1 << 30, 1<<31 - 1},
	} {
		for _, n := range []int{2, 17, 300, 5000} {
			checkRankOrder(t, fmt.Sprintf("%s, %d rows", c.what, n), randomRows(rnd, n, c.lo, c.span))
		}
	}

	// The rows real members rank: a term request, a vague one whose
	// relaxed rows have their distances blended, and a projection.
	ctx := context.Background()
	var src strings.Builder
	if err := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1988, YearTo: 1994, PubsPerVenueYear: 4}).WriteXML(&src, false); err != nil {
		t.Fatal(err)
	}
	db, err := OpenString(src.String())
	if err != nil {
		t.Fatal(err)
	}
	stream := func(terms []string, opt *Options, vg *Vague) *localStream {
		sh, err := opt.shape(vg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := db.termMeetsStream(ctx, terms, nil, opt, sh, vg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	term := stream([]string{"199", "html"}, ExcludeRoot(), nil)
	// The root is a meet too, admitted through "/dbl" at one unit of
	// slack: its blended distance widens the span past one pass.
	vague := stream([]string{"ICDE", "199"}, (&Options{}).Restrict("/dblp/inproceedings").Restrict("/dbl"), &Vague{MaxSlack: 2})
	q, err := query.Parse("SELECT value(e) FROM //year AS e")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := db.queryMeetsStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if vague.relaxBySlack[1] == 0 || vague.relaxBySlack[1] == vague.pending() {
		t.Fatalf("vague request relaxed %d of %d rows: want a blend of relaxed and exact rows", vague.relaxBySlack[1], vague.pending())
	}
	for _, c := range []struct {
		what string
		s    *localStream
	}{{"term request", term}, {"vague request", vague}, {"projection", proj}} {
		if len(c.s.buf.Rows) < 2 {
			t.Fatalf("%s: %d rows, too few to rank", c.what, len(c.s.buf.Rows))
		}
		if want := stableRankOrder(c.s.buf.Rows); !slices.Equal(c.s.buf.order, want) {
			t.Errorf("%s: ranked %v, the stable sort %v", c.what, c.s.buf.order, want)
		}
	}
	release([]memberStream[CorpusMeet]{term, vague, proj})
}

// FuzzRankOrder draws rows in node order from the input, three bytes
// a row: a node step, and a 16-bit distance shifted left by the input's
// scale, so that wide spans take several passes.
func FuzzRankOrder(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 1, 1, 0, 1, 0, 0, 0}, uint8(0))
	f.Add([]byte{2, 255, 255, 0, 0, 0, 1, 1, 0, 1, 7, 7}, uint8(8))
	f.Add([]byte{1, 9, 0, 0, 0, 9, 2, 1, 1, 0, 3, 3}, uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, scale uint8) {
		rows := make([]core.Row, 0, len(data)/3)
		node := NodeID(0)
		for ; len(data) >= 3; data = data[3:] {
			node += NodeID(data[0] % 3)
			d := int32(uint32(data[1])<<8|uint32(data[2])) << (scale % 16)
			rows = append(rows, core.Row{Meet: node, Distance: d})
		}
		checkRankOrder(t, "fuzzed rows", rows)
	})
}

// TestCursorSkipStopsOnCancel cancels a request while its cursor's skip
// runs: the merge polls the context before every pull, skipped or
// yielded, so one pull at most follows the cancel, and the sequence
// ends with the context's error. Three members hold 33 meets, and the
// cursor resumes at the 29th.
func TestCursorSkipStopsOnCancel(t *testing.T) {
	c := NewCorpus()
	for i := range 3 {
		db, err := fromDocument(bigBib(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fmt.Sprintf("m%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	const total, offset = 33, 28
	req := Request{Terms: []string{"Author", "199"}, Options: ExcludeRoot(), Limit: offset}
	first, err := c.Run(context.Background(), req)
	if err != nil || len(first.Meets) != offset || first.NextCursor == "" {
		t.Fatalf("first page: %d meets, cursor %q, err = %v", len(first.Meets), first.NextCursor, err)
	}
	req.Cursor = first.NextCursor

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pulls := 0
	testStreamPull = func(string, int, int) {
		if pulls++; pulls == 1 {
			cancel()
		}
	}
	defer func() { testStreamPull = nil }()
	var last error
	yields := 0
	for _, err := range c.Results(ctx, req) {
		if err != nil {
			last = err
			continue
		}
		yields++
	}
	if pulls > 2 || yields != 0 || !errors.Is(last, context.Canceled) {
		t.Errorf("cancelled at the first of %d skipped pulls over %d meets: %d pulls, %d meets yielded, err = %v; want at most 2 pulls, none yielded, context.Canceled",
			offset, total, pulls, yields, last)
	}
}

// TestCursorSkipRendersNothing pins what a cursor's skip costs: the
// merge passes the skipped meets as rank keys, rendering none of them,
// so a page deep in a long answer allocates what the first page does,
// both resumed from a cursor.
// When the skip rendered each meet it passed, a page at offset 1,000
// allocated a witness copy per skipped meet beyond the first page.
func TestCursorSkipRendersNothing(t *testing.T) {
	allocDB(t) // the skip rules of alloc_test.go
	c := NewCorpus()
	for i := range 8 {
		db, err := fromDocument(datagen.DBLP(datagen.DBLPConfig{
			Seed: int64(i + 1), YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 10,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fmt.Sprintf("shard-%d", i), db); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const offset, limit = 1000, 10
	req := Request{Terms: []string{"199", "html"}, Options: ExcludeRoot(), Limit: limit}
	page := func(offset int) func() {
		req := req
		req.Cursor = encodeCursor(offset, req.fingerprint(), c.Generation())
		return func() {
			res, err := c.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Meets) != limit || !res.Truncated {
				t.Fatalf("offset %d: %d meets, truncated %t: want a full page inside the answer", offset, len(res.Meets), res.Truncated)
			}
		}
	}
	first := testing.AllocsPerRun(20, page(0))
	deep := testing.AllocsPerRun(20, page(offset))
	t.Logf("a page of %d allocates %.0f at offset 0 and %.0f at offset %d", limit, first, deep, offset)
	if deep > first+4 {
		t.Errorf("a page at offset %d allocates %.0f, at offset 0 %.0f: pinned at +4", offset, deep, first)
	}
}
