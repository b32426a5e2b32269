package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// figure5 is the set meet as the paper's Figure 5 states it, kept
// executable as the reference the preorder pass is held to. Its
// distance-zero self-meets are counted with maps, not merged; then
// every other input goes into its path's bucket and the path summary
// is contracted deepest level first: each bucket is ordered by
// (ancestor reached, input), each run of one ancestor is decided — a
// meet, consumed on an excluded path, or lifted on past it under
// SkipExcluded — and the survivors are lifted one level into the
// parent path's bucket. Apart from Options' accessors it shares no
// code with the pass, and it models every option.
func figure5(s *monetx.Store, sets [][]bat.OID, opt *Options) ([]Result, []bat.OID) {
	type contrib struct {
		cur, orig bat.OID
		lifts     int
	}
	sum := s.Summary()
	inSets := map[bat.OID]int{}
	for _, set := range sets {
		for _, o := range slices.Compact(slices.Sorted(slices.Values(set))) {
			inSets[o]++
		}
	}
	buckets := make([][]contrib, sum.Len())
	var selfMeets []Result
	for o, k := range inSets {
		p := s.PathOf(o)
		if k >= 2 && !(opt.excluded(p) && opt.skipExcluded()) {
			if !opt.excluded(p) {
				selfMeets = append(selfMeets, Result{Meet: o, Path: p, Witnesses: []bat.OID{o}})
			}
			continue
		}
		buckets[p] = append(buckets[p], contrib{cur: o, orig: o})
	}
	// Deepest first: every path after all of its summary children.
	order := sum.ElemPaths()
	slices.SortStableFunc(order, func(a, b pathsum.PathID) int { return cmp.Compare(sum.Depth(b), sum.Depth(a)) })
	var results []Result
	unmatched := []bat.OID{}
	for _, p := range order {
		es := buckets[p]
		slices.SortFunc(es, func(a, b contrib) int {
			return cmp.Or(cmp.Compare(a.cur, b.cur), cmp.Compare(a.orig, b.orig))
		})
		for i := 0; i < len(es); {
			j := i + 1
			for j < len(es) && es[j].cur == es[i].cur {
				j++
			}
			run := es[i:j]
			i = j
			if len(run) >= 2 {
				excluded := opt.excluded(p)
				if !excluded || !opt.skipExcluded() {
					lifts := make([]int, len(run))
					r := Result{Meet: run[0].cur, Path: p}
					for k, e := range run {
						r.Witnesses = append(r.Witnesses, e.orig)
						r.Distance += e.lifts
						lifts[k] = e.lifts
					}
					slices.Sort(lifts)
					if d := opt.maxDistance(); !excluded && (d == 0 || lifts[0]+lifts[1] <= d) {
						results = append(results, r)
					}
					continue
				}
			}
			parent := sum.Parent(p)
			for _, e := range run {
				if parent == pathsum.Invalid || (opt.maxLift() > 0 && e.lifts+1 > opt.maxLift()) {
					unmatched = append(unmatched, e.orig)
					continue
				}
				buckets[parent] = append(buckets[parent], contrib{cur: s.Parent(e.cur), orig: e.orig, lifts: e.lifts + 1})
			}
		}
	}
	slices.Sort(unmatched)
	return SortByDocOrder(append(SortByDocOrder(results), SortByDocOrder(selfMeets)...)), unmatched
}

// optionSets returns the option sets the roll-up is held to the
// reference under, on store s: none, the root excluded, a random
// exclusion with and without SkipExcluded, MaxLift, MaxDistance, and
// all of them at once.
func optionSets(r *rand.Rand, s *monetx.Store) []*Options {
	random := map[pathsum.PathID]bool{}
	for _, p := range s.Summary().ElemPaths() {
		if r.Intn(3) == 0 {
			random[p] = true
		}
	}
	return []*Options{
		nil,
		ExcludeRoot(s),
		{Exclude: random},
		{Exclude: random, SkipExcluded: true},
		{MaxLift: 1 + r.Intn(5)},
		{MaxDistance: 1 + r.Intn(8)},
		{Exclude: random, SkipExcluded: true, MaxLift: 2 + r.Intn(6), MaxDistance: 2 + r.Intn(8)},
	}
}

// randomSets draws 1-4 sets of up to most OIDs of s, overlapping here and
// there, each ascending and distinct as locate delivers them.
func randomSets(r *rand.Rand, s *monetx.Store, most int) [][]bat.OID {
	sets := make([][]bat.OID, 1+r.Intn(4))
	for k := range sets {
		for j, jn := 0, r.Intn(most+1); j < jn; j++ {
			sets[k] = append(sets[k], bat.OID(r.Intn(s.Len())+1))
		}
		sets[k] = bat.SortDedup(sets[k])
	}
	return sets
}

// checkFigure5 runs sets through MeetMultiContext under every option set
// — as drawn and scrambled — and requires the reference's results and
// unmatched inputs, and the same from MeetInto into a reused Answers.
// It returns how many meets the reference found.
func checkFigure5(t *testing.T, r *rand.Rand, name string, s *monetx.Store, sets [][]bat.OID) int {
	t.Helper()
	meets := 0
	for oi, opt := range optionSets(r, s) {
		want, wantUn := figure5(s, sets, opt)
		meets += len(want)
		for form, in := range [][][]bat.OID{sets, scramble(r, sets)} {
			got, gotUn, err := meetMulti(s, in, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) || !slices.Equal(gotUn, wantUn) {
				t.Fatalf("%s, options %d %+v, form %d, sets %v:\n got %+v unmatched %v\nwant %+v unmatched %v",
					name, oi, opt, form, sets, got, gotUn, want, wantUn)
			}
			checkMeetInto(t, s, in, opt, got, gotUn)
		}
	}
	return meets
}

// stale is the one Answers every differential check reuses, across
// inputs and stores: it still holds the previous check's answer, and
// checkMeetInto pads it with junk first, so MeetInto always starts on
// a larger stale answer that it must reset.
var stale Answers

// checkMeetInto runs sets through MeetInto into stale and requires the
// rows and their witness spans to read back as MeetMultiContext's
// results (want) and its unmatched column as the same unmatched inputs.
func checkMeetInto(t *testing.T, s *monetx.Store, sets [][]bat.OID, opt *Options, want []Result, wantUn []bat.OID) {
	t.Helper()
	for i := range 64 {
		stale.Rows = append(stale.Rows, Row{Meet: bat.OID(i), Distance: -1, Lo: 0, Hi: uint32(i + 1)})
		stale.Wits = append(stale.Wits, bat.OID(i))
		stale.Unmatched = append(stale.Unmatched, bat.OID(i))
	}
	if err := MeetInto(context.Background(), s, sets, opt, &stale); err != nil {
		t.Fatal(err)
	}
	un := stale.Unmatched
	got := make([]Result, len(stale.Rows))
	for i, r := range stale.Rows {
		got[i] = Result{Meet: r.Meet, Path: r.Path, Witnesses: stale.Witnesses(i), Distance: int(r.Distance)}
	}
	if !resultsEqual(got, want) || !slices.Equal(un, wantUn) {
		t.Fatalf("MeetInto into a reused Answers, options %+v, sets %v:\n got %+v unmatched %v\nwant %+v unmatched %v",
			opt, sets, got, un, want, wantUn)
	}
}

// TestRollupEqualsFigure5 holds the preorder pass to the level sweep on
// small random trees, traffic-sized stores and deep chains, under every
// option set, with 1-4 overlapping sets arriving sorted or scrambled.
func TestRollupEqualsFigure5(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	meets := 0
	for i := 0; i < 60; i++ {
		s, err := monetx.Load(xmltree.Random(r, 70))
		if err != nil {
			t.Fatal(err)
		}
		meets += checkFigure5(t, r, "random tree", s, randomSets(r, s, 12))
	}
	for i := 0; i < 3; i++ {
		s := largeStore(t, r)
		meets += checkFigure5(t, r, "large store", s, largeTermSets(r, s.Len()))
		meets += checkFigure5(t, r, "large store, one set", s, largeTermSets(r, s.Len())[:1])
	}
	s := bigStore(t, 40)
	for i := 0; i < 10; i++ {
		meets += checkFigure5(t, r, "deep chains", s, randomSets(r, s, 60))
	}
	if meets == 0 {
		t.Fatal("no meets anywhere — the test checks nothing")
	}
}

// FuzzRollupEqualsFigure5 decodes bytes into a tree, input sets and
// options, and holds MeetMultiContext to the reference on them, and
// MeetInto into one reused Answers to MeetMultiContext:
//
//	data[0]  option bits: 1 exclude the root, 2 exclude the paths whose
//	         ID's bit is set in data[1], 4 SkipExcluded, 8 MaxLift,
//	         16 MaxDistance (both read from data[1]), 32 reverse the sets
//	data[2]  how many of the following bytes grow the tree (mod 48):
//	         each hangs a node labelled a, b or c under an earlier one
//	rest     one input each: the top two bits pick the set, the low six
//	         the OID
func FuzzRollupEqualsFigure5(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 4, 0, 0, 1, 1, 3, 4, 0x44, 0x85})
	f.Add([]byte{1, 0, 6, 0, 0x40, 0x81, 1, 2, 3, 2, 3, 4, 5, 6, 7, 0x43, 0x44})
	f.Add([]byte{2 | 4, 0x5a, 8, 0, 1, 2, 3, 0, 0x45, 0x86, 7, 3, 5, 8, 9, 0x48, 0x89, 0xc9})
	f.Add([]byte{8 | 16 | 32, 0x93, 5, 0, 1, 2, 3, 4, 6, 2, 6, 0x42, 0x86, 0x46, 1})
	f.Add([]byte{63, 0xff, 10, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11, 0x4b, 0x8a, 0xcb})
	// Exactly two non-empty sets, with a repeat in one and OIDs in both.
	f.Add([]byte{0, 0, 6, 0, 0, 1, 1, 2, 2, 0x01, 0x03, 0x03, 0x05, 0x83, 0x84, 0x86, 0x81})
	f.Add([]byte{1 | 2 | 4, 0x5a, 6, 0, 0, 1, 1, 2, 2, 0x02, 0x03, 0x43, 0x44, 0x46, 0x06})
	// Two deep chains under one node, then a node past it: r(1) holds
	// x(2), whose chains run 3-6 and 7-10, and y(11). The chain ends 6
	// and 10 meet at x, 4 lifts each, and 10 joins x's frame, which ends
	// before the next input 11 — unbounded, and with MaxLift 4 and 3.
	f.Add([]byte{0, 0, 10, 0, 1, 2, 3, 4, 1, 6, 7, 8, 0, 0x05, 0x49, 0x0a})
	f.Add([]byte{8, 3, 10, 0, 1, 2, 3, 4, 1, 6, 7, 8, 0, 0x05, 0x49, 0x0a})
	f.Add([]byte{8, 2, 10, 0, 1, 2, 3, 4, 1, 6, 7, 8, 0, 0x05, 0x49, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		bits, param, grow := data[0], data[1], int(data[2])%48
		data = data[3:]
		b := xmltree.NewBuilder("r")
		nodes := []*xmltree.Node{b.Root()}
		for ; grow > 0 && len(data) > 0; grow, data = grow-1, data[1:] {
			parent := nodes[int(data[0])%len(nodes)]
			nodes = append(nodes, b.Element(parent, []string{"a", "b", "c"}[int(data[0]>>6)%3]))
		}
		doc, err := b.Done()
		if err != nil {
			t.Fatal(err)
		}
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		sets := make([][]bat.OID, 4)
		for _, c := range data {
			sets[c>>6] = append(sets[c>>6], bat.OID(int(c&0x3f)%s.Len()+1))
		}
		opt := &Options{SkipExcluded: bits&4 != 0}
		if bits&1 != 0 || bits&2 != 0 {
			opt.Exclude = map[pathsum.PathID]bool{}
		}
		if bits&1 != 0 {
			opt.Exclude[s.Summary().Root()] = true
		}
		if bits&2 != 0 {
			for _, p := range s.Summary().ElemPaths() {
				if param>>(p%8)&1 != 0 {
					opt.Exclude[p] = true
				}
			}
		}
		if bits&8 != 0 {
			opt.MaxLift = 1 + int(param)%5
		}
		if bits&16 != 0 {
			opt.MaxDistance = 1 + int(param>>3)%8
		}
		if bits&32 != 0 {
			for _, set := range sets {
				slices.Reverse(set)
			}
		}
		want, wantUn := figure5(s, sets, opt)
		got, gotUn, err := meetMulti(s, sets, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) || !slices.Equal(gotUn, wantUn) {
			t.Fatalf("options %+v, sets %v:\n got %+v unmatched %v\nwant %+v unmatched %v", opt, sets, got, gotUn, want, wantUn)
		}
		checkMeetInto(t, s, sets, opt, got, gotUn)
	})
}
