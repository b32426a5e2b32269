package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

func TestMeetMultiBobByteExample(t *testing.T) {
	s := fig1Store(t)
	// "Bob" and "Byte" both hit ⟨o15,"Bob Byte"⟩: the meet is the cdata
	// node itself at distance 0 (paper Section 3.1).
	res, unmatched, err := meetMulti(s, [][]bat.OID{{15}, {15}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 15 || res[0].Distance != 0 {
		t.Fatalf("meets = %+v, want self-meet at o15", res)
	}
	if !reflect.DeepEqual(res[0].Witnesses, []bat.OID{15}) {
		t.Errorf("witnesses = %v", res[0].Witnesses)
	}
	if len(unmatched) != 0 {
		t.Errorf("unmatched = %v", unmatched)
	}
}

func TestMeetMultiMixedSelfAndRollup(t *testing.T) {
	s := fig1Store(t)
	// Set 1: {o15, o8}; set 2: {o15, o12}. o15 self-meets; o8 and o12
	// roll up to the article o3.
	res, unmatched, err := meetMulti(s, [][]bat.OID{{15, 8}, {15, 12}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Meet != 3 || res[1].Meet != 15 {
		t.Errorf("meets = o%d,o%d, want o3,o15 (document order)", res[0].Meet, res[1].Meet)
	}
	if res[1].Distance != 0 || res[0].Distance != 5 {
		t.Errorf("distances = %d,%d", res[0].Distance, res[1].Distance)
	}
	if len(unmatched) != 0 {
		t.Errorf("unmatched = %v", unmatched)
	}
}

func TestMeetMultiSingleSetEqualsMeetOIDs(t *testing.T) {
	// One flat set of inputs — what MeetOIDs took before the one-set call
	// replaced it — is rolled up whatever its paths: it must answer what
	// the depth-sweep reference does, unsorted and repeated inputs
	// included (a lone set drains straight into the roll-up).
	s := fig1Store(t)
	oids := []bat.OID{19, 8, 12, 10, 12}
	got, gotUn, err := meetOIDs(s, oids, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, wantUn := naiveMeet(s, oids, nil)
	if !resultsEqual(got, want) || !reflect.DeepEqual(gotUn, wantUn) {
		t.Errorf("single-set MeetMultiContext diverges from the reference:\n%+v %v\nvs\n%+v %v", got, gotUn, want, wantUn)
	}
}

func TestMeetMultiDuplicatesWithinOneSetDoNotSelfMeet(t *testing.T) {
	s := fig1Store(t)
	// The same OID twice in ONE set is one object, not two.
	res, unmatched, err := meetMulti(s, [][]bat.OID{{15, 15}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results = %+v, want none", res)
	}
	if !reflect.DeepEqual(unmatched, []bat.OID{15}) {
		t.Errorf("unmatched = %v", unmatched)
	}
}

func TestMeetMultiExcludedSelfMeet(t *testing.T) {
	s := fig1Store(t)
	cdPath := s.PathOf(15)
	// Plain exclusion: the self-meet is consumed silently.
	opt := &Options{Exclude: map[pathsum.PathID]bool{cdPath: true}}
	res, unmatched, err := meetMulti(s, [][]bat.OID{{15}, {15}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || len(unmatched) != 0 {
		t.Errorf("excluded self-meet: results %+v unmatched %v", res, unmatched)
	}
	// SkipExcluded: the object keeps climbing as a single contribution
	// and (being alone) ends unmatched.
	opt.SkipExcluded = true
	res, unmatched, err = meetMulti(s, [][]bat.OID{{15}, {15}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results = %+v", res)
	}
	if !reflect.DeepEqual(unmatched, []bat.OID{15}) {
		t.Errorf("unmatched = %v, want [15]", unmatched)
	}
	// SkipExcluded with a partner: o15 climbs and meets o17's hit at
	// the second article.
	res, _, err = meetMulti(s, [][]bat.OID{{15}, {15}, {17}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 13 {
		t.Errorf("results = %+v, want the second article o13", res)
	}
}

func TestMeetMultiErrors(t *testing.T) {
	s := fig1Store(t)
	if _, _, err := meetMulti(s, [][]bat.OID{{0}}, nil); err == nil {
		t.Error("invalid OID accepted")
	}
	if _, _, err := meetMulti(s, [][]bat.OID{{99}, {1}}, nil); err == nil {
		t.Error("out-of-range OID accepted")
	}
}

func TestMeetMultiInvariantsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for i := 0; i < 40; i++ {
		doc := xmltree.Random(r, 60)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		n := s.Len()
		// Random number of sets with random overlapping members.
		sets := make([][]bat.OID, 1+r.Intn(4))
		inSets := map[bat.OID]int{}
		all := map[bat.OID]bool{}
		for k := range sets {
			members := map[bat.OID]bool{}
			for j, jn := 0, r.Intn(8); j < jn; j++ {
				o := bat.OID(r.Intn(n) + 1)
				if !members[o] {
					members[o] = true
					inSets[o]++
				}
				all[o] = true
				sets[k] = append(sets[k], o)
			}
		}
		results, unmatched, err := meetMulti(s, sets, nil)
		if err != nil {
			t.Fatal(err)
		}
		consumed := map[bat.OID]bool{}
		for _, r0 := range results {
			if len(r0.Witnesses) == 1 {
				w := r0.Witnesses[0]
				if r0.Meet != w || r0.Distance != 0 {
					t.Fatalf("doc %d: singleton result not a self-meet: %+v", i, r0)
				}
				if inSets[w] < 2 {
					t.Fatalf("doc %d: self-meet for %d present in %d set(s)", i, w, inSets[w])
				}
			}
			for _, w := range r0.Witnesses {
				if consumed[w] {
					t.Fatalf("doc %d: witness %d consumed twice", i, w)
				}
				consumed[w] = true
				if !s.Contains(r0.Meet, w) {
					t.Fatalf("doc %d: meet %d does not contain %d", i, r0.Meet, w)
				}
			}
		}
		for _, u := range unmatched {
			if consumed[u] {
				t.Fatalf("doc %d: OID %d both matched and unmatched", i, u)
			}
			consumed[u] = true
		}
		if len(consumed) != len(all) {
			t.Fatalf("doc %d: consumed %d of %d distinct inputs", i, len(consumed), len(all))
		}
		// Order invariance: permute the sets and shuffle members.
		perm := r.Perm(len(sets))
		shuffled := make([][]bat.OID, len(sets))
		for k, p := range perm {
			cp := append([]bat.OID(nil), sets[p]...)
			r.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
			shuffled[k] = cp
		}
		again, againUn, err := meetMulti(s, shuffled, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(results, again) || !reflect.DeepEqual(unmatched, againUn) {
			t.Fatalf("doc %d: the meet depends on input order", i)
		}
	}
}

func TestMeetMultiEmpty(t *testing.T) {
	s := fig1Store(t)
	res, unmatched, err := meetMulti(s, nil, nil)
	if err != nil || len(res) != 0 || len(unmatched) != 0 {
		t.Errorf("meet of no sets = (%v,%v,%v)", res, unmatched, err)
	}
}

// The differential tests above draw at most a dozen inputs over 60-70
// node trees, so no meet gathers more than a few witnesses. The tests
// below are sized like traffic: thousands of nodes, hundreds of inputs
// per term set, meets over many of them.

// largeStore loads a random tree of at least 3,000 nodes over a
// schema of two labels and five levels — a few dozen paths with a
// hundred-odd nodes each, the shape of a real corpus. (xmltree.Random
// scatters its nodes over so many paths that few inputs ever share a
// path.)
func largeStore(t *testing.T, r *rand.Rand) *monetx.Store {
	t.Helper()
	b := xmltree.NewBuilder("root")
	n := 1
	var grow func(parent *xmltree.Node, depth int)
	grow = func(parent *xmltree.Node, depth int) {
		for k, kn := 0, 1+r.Intn(4); k < kn; k++ {
			n++
			if depth > 1 && r.Intn(3) == 0 {
				b.Text(parent, "t")
				continue
			}
			if c := b.Element(parent, []string{"a", "b"}[r.Intn(2)]); depth < 5 {
				grow(c, depth+1)
			}
		}
	}
	for n < 3000 {
		grow(b.Root(), 1)
	}
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	s, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// largeTermSets draws 2-4 ascending, distinct term sets of 300-1,500
// inputs in total, overlapping here and there as term hits do.
func largeTermSets(r *rand.Rand, n int) [][]bat.OID {
	sets := make([][]bat.OID, 2+r.Intn(3))
	total := 300 + r.Intn(1201)
	for k := range sets {
		for j := 0; j < total/len(sets); j++ {
			sets[k] = append(sets[k], bat.OID(r.Intn(n)+1))
		}
		sets[k] = bat.SortDedup(sets[k])
	}
	return sets
}

// scramble returns the sets as an arbitrary caller might pass them:
// every set shuffled, with some members repeated.
func scramble(r *rand.Rand, sets [][]bat.OID) [][]bat.OID {
	out := make([][]bat.OID, len(sets))
	for k, set := range sets {
		cp := append([]bat.OID(nil), set...)
		for j, jn := 0, len(set)/4; j < jn; j++ {
			cp = append(cp, set[r.Intn(len(set))])
		}
		r.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
		out[k] = cp
	}
	return out
}

// naiveMeetMulti lifts the naiveMeet oracle to term sets the way
// MeetMultiContext's contract states it: an OID held by two or more sets is
// its own meet at distance zero (consumed silently on an excluded
// path), everything else goes to the depth sweep.
func naiveMeetMulti(s *monetx.Store, sets [][]bat.OID, exclude map[pathsum.PathID]bool) ([]Result, []bat.OID) {
	inSets := map[bat.OID]int{}
	for _, set := range sets {
		members := map[bat.OID]bool{}
		for _, o := range set {
			if !members[o] {
				members[o] = true
				inSets[o]++
			}
		}
	}
	var rest []bat.OID
	var selfMeets []Result
	for o, k := range inSets {
		switch {
		case k < 2:
			rest = append(rest, o)
		case !exclude[s.PathOf(o)]:
			selfMeets = append(selfMeets, Result{Meet: o, Path: s.PathOf(o), Witnesses: []bat.OID{o}})
		}
	}
	results, unmatched := naiveMeet(s, rest, exclude)
	// A rolled-up meet sorts before the self-meet on the same node.
	return SortByDocOrder(append(results, SortByDocOrder(selfMeets)...)), unmatched
}

// TestMeetMultiLargeAgainstReference checks MeetMultiContext against the
// depth-sweep oracle on traffic-sized inputs — plain, with the root
// excluded and with a random excluded path set — and that the answer
// does not depend on the sets arriving ascending and distinct.
func TestMeetMultiLargeAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for i := 0; i < 6; i++ {
		s := largeStore(t, r)
		sets := largeTermSets(r, s.Len())
		random := map[pathsum.PathID]bool{}
		for _, p := range s.Summary().ElemPaths() {
			if r.Intn(4) == 0 {
				random[p] = true
			}
		}
		for _, c := range []struct {
			name    string
			exclude map[pathsum.PathID]bool
		}{
			{"plain", nil},
			{"root excluded", map[pathsum.PathID]bool{s.Summary().Root(): true}},
			{"random exclusion", random},
		} {
			want, wantUn := naiveMeetMulti(s, sets, c.exclude)
			for form, in := range [][][]bat.OID{sets, scramble(r, sets)} {
				got, gotUn, err := meetMulti(s, in, &Options{Exclude: c.exclude})
				if err != nil {
					t.Fatal(err)
				}
				if !resultsEqual(got, want) {
					t.Fatalf("doc %d (%d nodes), %s, form %d: %d meets, oracle has %d, or they differ", i, s.Len(), c.name, form, len(got), len(want))
				}
				if !reflect.DeepEqual(gotUn, wantUn) {
					t.Fatalf("doc %d, %s, form %d: unmatched %v, oracle %v", i, c.name, form, gotUn, wantUn)
				}
			}
		}
	}
}

// TestMeetMultiLargeNormalisation covers the options the oracle does
// not model: under each, scrambled sets must answer exactly like their
// sorted distinct form, results and unmatched.
func TestMeetMultiLargeNormalisation(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for i := 0; i < 4; i++ {
		s := largeStore(t, r)
		sets := largeTermSets(r, s.Len())
		exclude := map[pathsum.PathID]bool{s.Summary().Root(): true}
		for _, p := range s.Summary().ElemPaths() {
			if r.Intn(3) == 0 {
				exclude[p] = true
			}
		}
		for _, c := range []struct {
			name string
			opt  Options
		}{
			{"SkipExcluded", Options{Exclude: exclude, SkipExcluded: true}},
			{"MaxLift", Options{MaxLift: 1 + r.Intn(4)}},
			{"MaxDistance", Options{MaxDistance: 2 + r.Intn(5)}},
			{"all", Options{Exclude: exclude, SkipExcluded: true, MaxLift: 3 + r.Intn(4), MaxDistance: 4 + r.Intn(4)}},
		} {
			name, opt := c.name, &c.opt
			want, wantUn, err := meetMulti(s, sets, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, gotUn, err := meetMulti(s, scramble(r, sets), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) || !reflect.DeepEqual(gotUn, wantUn) {
				t.Fatalf("doc %d, %s: scrambled sets answer differently (%d meets, %d unmatched; sorted distinct %d, %d)",
					i, name, len(got), len(gotUn), len(want), len(wantUn))
			}
			if len(want) == 0 {
				t.Fatalf("doc %d, %s: no meets — the case checks nothing", i, name)
			}
		}
	}
}
