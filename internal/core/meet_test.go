package core

import (
	"context"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// meetMulti and meetOIDs are the tests' ctx-less spellings of the one
// entry: term sets, and one flat set of inputs (what the retired
// MeetOIDs took), whatever their paths.
func meetMulti(s *monetx.Store, sets [][]bat.OID, opt *Options) ([]Result, []bat.OID, error) {
	return MeetMultiContext(context.Background(), s, sets, opt)
}

func meetOIDs(s *monetx.Store, oids []bat.OID, opt *Options) ([]Result, []bat.OID, error) {
	return meetMulti(s, [][]bat.OID{oids}, opt)
}

// resultsEqual compares result slices while tolerating nil-vs-empty.
func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Meet != b[i].Meet || a[i].Path != b[i].Path || a[i].Distance != b[i].Distance {
			return false
		}
		if !reflect.DeepEqual(a[i].Witnesses, b[i].Witnesses) {
			return false
		}
	}
	return true
}

func artPath(t *testing.T, s *monetx.Store) pathsum.PathID {
	t.Helper()
	p, ok := s.Summary().Lookup([]string{"bibliography", "institute", "article"})
	if !ok {
		t.Fatal("article path missing")
	}
	return p
}

// contribution is one input travelling up naiveMeet's depth sweep: the
// original OID plus the parent joins it has taken so far.
type contribution struct {
	orig  bat.OID
	lifts int32
}

// naiveMeet is an independent reference implementation of the general
// meet: instead of one preorder pass (or Figure 5's contraction of the
// path summary, figure5) it sweeps node depths from the deepest level
// upward. Contributions collide at the same instance nodes either way,
// so the formulations must agree; they share no code.
func naiveMeet(s *monetx.Store, oids []bat.OID, exclude map[pathsum.PathID]bool) ([]Result, []bat.OID) {
	byDepth := map[int]map[bat.OID][]contribution{}
	seen := map[bat.OID]bool{}
	maxDepth := 0
	for _, o := range oids {
		if seen[o] {
			continue
		}
		seen[o] = true
		d := s.Depth(o)
		if byDepth[d] == nil {
			byDepth[d] = map[bat.OID][]contribution{}
		}
		byDepth[d][o] = append(byDepth[d][o], contribution{o, 0})
		if d > maxDepth {
			maxDepth = d
		}
	}
	// The unmatched inputs come back non-nil, as the roll-up's do.
	unmatched := []bat.OID{}
	if len(seen) < 2 {
		return nil, append(unmatched, slices.Sorted(maps.Keys(seen))...)
	}
	var results []Result
	for d := maxDepth; d >= 0; d-- {
		for cur, contribs := range byDepth[d] {
			if len(contribs) >= 2 {
				if exclude == nil || !exclude[s.PathOf(cur)] {
					r := Result{Meet: cur, Path: s.PathOf(cur)}
					for _, c := range contribs {
						r.Witnesses = append(r.Witnesses, c.orig)
						r.Distance += int(c.lifts)
					}
					slices.Sort(r.Witnesses)
					results = append(results, r)
				}
				continue
			}
			if d == 0 {
				for _, c := range contribs {
					unmatched = append(unmatched, c.orig)
				}
				continue
			}
			parent := s.Parent(cur)
			if byDepth[d-1] == nil {
				byDepth[d-1] = map[bat.OID][]contribution{}
			}
			for _, c := range contribs {
				byDepth[d-1][parent] = append(byDepth[d-1][parent],
					contribution{c.orig, c.lifts + 1})
			}
		}
	}
	slices.Sort(unmatched)
	return SortByDocOrder(results), unmatched
}

func TestMeetPaperQuery(t *testing.T) {
	s := fig1Store(t)
	// The reformulated introduction query: meet of the 'Bit' hits and
	// the '1999' hits. Answer: exactly the article o3 — "a true subset
	// of what the regular path expression solution returned".
	res, unmatched, err := meetOIDs(s, []bat.OID{8, 12, 19}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 3 {
		t.Fatalf("Meet = %+v, want the single article o3", res)
	}
	if !reflect.DeepEqual(res[0].Witnesses, []bat.OID{8, 12}) {
		t.Errorf("witnesses = %v, want [8 12]", res[0].Witnesses)
	}
	if res[0].Distance != 5 {
		t.Errorf("distance = %d, want 5", res[0].Distance)
	}
	if !reflect.DeepEqual(unmatched, []bat.OID{19}) {
		t.Errorf("unmatched = %v, want [19] (the second 1999 finds no partner)", unmatched)
	}
}

func TestMeetWithinGroupCollision(t *testing.T) {
	s := fig1Store(t)
	// Both 1999 hits alone: they are two input nodes, so their LCA (the
	// institute) is a meet under the extended definition of Section 3.2.
	res, unmatched, err := meetOIDs(s, []bat.OID{12, 19}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 2 {
		t.Fatalf("Meet = %+v, want institute o2", res)
	}
	if res[0].Distance != 6 {
		t.Errorf("distance = %d, want 6", res[0].Distance)
	}
	if len(unmatched) != 0 {
		t.Errorf("unmatched = %v", unmatched)
	}
}

func TestMeetInputIsAncestorOfOther(t *testing.T) {
	s := fig1Store(t)
	// Inputs o3 (article) and o8 (cdata below it): the article is the
	// LCA of the pair — a node can be a meet of itself and a descendant.
	res, unmatched, err := meetOIDs(s, []bat.OID{3, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 3 {
		t.Fatalf("Meet = %+v, want o3", res)
	}
	if !reflect.DeepEqual(res[0].Witnesses, []bat.OID{3, 8}) {
		t.Errorf("witnesses = %v", res[0].Witnesses)
	}
	if res[0].Distance != 3 {
		t.Errorf("distance = %d, want 3 (o8 lifted thrice, o3 not at all)", res[0].Distance)
	}
	if len(unmatched) != 0 {
		t.Errorf("unmatched = %v", unmatched)
	}
}

func TestMeetSingleInputUnmatched(t *testing.T) {
	s := fig1Store(t)
	res, unmatched, err := meetOIDs(s, []bat.OID{8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("single input produced meets: %+v", res)
	}
	if !reflect.DeepEqual(unmatched, []bat.OID{8}) {
		t.Errorf("unmatched = %v, want [8]", unmatched)
	}
}

func TestMeetEmptyInput(t *testing.T) {
	s := fig1Store(t)
	res, unmatched, err := meetOIDs(s, nil, nil)
	if err != nil || res != nil || len(unmatched) != 0 {
		t.Errorf("meet of nothing = (%v,%v,%v)", res, unmatched, err)
	}
}

func TestMeetDuplicateInputsCollapse(t *testing.T) {
	s := fig1Store(t)
	a, ua, err := meetOIDs(s, []bat.OID{8, 8, 12, 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, ub, err := meetOIDs(s, []bat.OID{8, 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(a, b) || !reflect.DeepEqual(ua, ub) {
		t.Errorf("duplicates changed result: %+v vs %+v", a, b)
	}
}

func TestMeetErrors(t *testing.T) {
	s := fig1Store(t)
	if _, _, err := meetOIDs(s, []bat.OID{8, 0}, nil); err == nil {
		t.Error("invalid OID accepted")
	}
	if _, _, err := meetOIDs(s, []bat.OID{77}, nil); err == nil {
		t.Error("out-of-range OID accepted")
	}
}

func TestMeetExcludeRoot(t *testing.T) {
	s := fig1Store(t)
	// o1 (root) and o2 (institute) meet at the root; with ExcludeRoot
	// the match is consumed silently (meet_P is a result filter).
	res, unmatched, err := meetOIDs(s, []bat.OID{1, 2}, ExcludeRoot(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("root meet reported despite exclusion: %+v", res)
	}
	if len(unmatched) != 0 {
		t.Errorf("unmatched = %v, want none (consumed by the excluded meet)", unmatched)
	}
}

func TestMeetSkipExcludedLiftsPast(t *testing.T) {
	s := fig1Store(t)
	art := artPath(t, s)
	opt := &Options{Exclude: map[pathsum.PathID]bool{art: true}, SkipExcluded: true}
	res, _, err := meetOIDs(s, []bat.OID{8, 12}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 2 {
		t.Fatalf("SkipExcluded = %+v, want the institute o2", res)
	}
}

func TestMeetSkipExcludedAtRootGoesUnmatched(t *testing.T) {
	s := fig1Store(t)
	opt := &Options{Exclude: map[pathsum.PathID]bool{s.Summary().Root(): true}, SkipExcluded: true}
	res, unmatched, err := meetOIDs(s, []bat.OID{1, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results = %+v", res)
	}
	if !reflect.DeepEqual(unmatched, []bat.OID{1, 2}) {
		t.Errorf("unmatched = %v, want [1 2]", unmatched)
	}
}

func TestMeetMaxLift(t *testing.T) {
	s := fig1Store(t)
	// o8 needs 3 lifts to the article; a budget of 2 leaves both inputs
	// unmatched (o12 runs out above the article as well).
	res, unmatched, err := meetOIDs(s, []bat.OID{8, 12}, &Options{MaxLift: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("MaxLift 2 produced %+v", res)
	}
	if !reflect.DeepEqual(unmatched, []bat.OID{8, 12}) {
		t.Errorf("unmatched = %v", unmatched)
	}
	res, _, err = meetOIDs(s, []bat.OID{8, 12}, &Options{MaxLift: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 3 {
		t.Errorf("MaxLift 3 = %+v, want the article", res)
	}
}

func TestMeetMaxDistance(t *testing.T) {
	s := fig1Store(t)
	res, _, err := meetOIDs(s, []bat.OID{8, 12}, &Options{MaxDistance: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("MaxDistance 4 produced %+v", res)
	}
	res, _, err = meetOIDs(s, []bat.OID{8, 12}, &Options{MaxDistance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("MaxDistance 5 produced %+v", res)
	}
}

func TestMeetAgainstDepthSweepReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 40; i++ {
		doc := xmltree.Random(r, 70)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		n := s.Len()
		// Random input multiset of up to 12 OIDs.
		var oids []bat.OID
		for k, kn := 0, r.Intn(12); k < kn; k++ {
			oids = append(oids, bat.OID(r.Intn(n)+1))
		}
		got, gotUn, err := meetOIDs(s, oids, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantUn := naiveMeet(s, oids, nil)
		if !resultsEqual(got, want) {
			t.Fatalf("doc %d inputs %v:\npath roll-up: %+v\ndepth sweep:  %+v", i, oids, got, want)
		}
		if !reflect.DeepEqual(gotUn, wantUn) {
			t.Fatalf("doc %d inputs %v: unmatched %v vs %v", i, oids, gotUn, wantUn)
		}
		// With root exclusion as well.
		got, _, err = meetOIDs(s, oids, ExcludeRoot(s))
		if err != nil {
			t.Fatal(err)
		}
		want, _ = naiveMeet(s, oids, map[pathsum.PathID]bool{s.Summary().Root(): true})
		if !resultsEqual(got, want) {
			t.Fatalf("doc %d inputs %v (root excluded): %+v vs %+v", i, oids, got, want)
		}
	}
}

// TestMeetRandomExclusionAgainstReference draws random excluded path
// sets and checks the roll-up against the depth-sweep oracle.
func TestMeetRandomExclusionAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 30; i++ {
		doc := xmltree.Random(r, 60)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		paths := s.Summary().ElemPaths()
		exclude := map[pathsum.PathID]bool{}
		for _, p := range paths {
			if r.Intn(4) == 0 {
				exclude[p] = true
			}
		}
		var oids []bat.OID
		for k, kn := 0, r.Intn(12); k < kn; k++ {
			oids = append(oids, bat.OID(r.Intn(s.Len())+1))
		}
		got, gotUn, err := meetOIDs(s, oids, &Options{Exclude: exclude})
		if err != nil {
			t.Fatal(err)
		}
		want, wantUn := naiveMeet(s, oids, exclude)
		if !resultsEqual(got, want) || !reflect.DeepEqual(gotUn, wantUn) {
			t.Fatalf("doc %d inputs %v exclude %v:\ngot  %+v %v\nwant %+v %v",
				i, oids, exclude, got, gotUn, want, wantUn)
		}
		// No result may lie on an excluded path.
		for _, r0 := range got {
			if exclude[r0.Path] {
				t.Fatalf("doc %d: excluded meet reported: %+v", i, r0)
			}
		}
	}
}

// TestMeetSkipExcludedInvariants checks the climbing semantics: with
// SkipExcluded every reported meet is admissible and is the deepest
// admissible common ancestor of its witnesses.
func TestMeetSkipExcludedInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for i := 0; i < 30; i++ {
		doc := xmltree.Random(r, 60)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		paths := s.Summary().ElemPaths()
		exclude := map[pathsum.PathID]bool{}
		for _, p := range paths {
			if r.Intn(3) == 0 {
				exclude[p] = true
			}
		}
		var oids []bat.OID
		for k, kn := 0, 2+r.Intn(10); k < kn; k++ {
			oids = append(oids, bat.OID(r.Intn(s.Len())+1))
		}
		got, _, err := meetOIDs(s, oids, &Options{Exclude: exclude, SkipExcluded: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r0 := range got {
			if exclude[r0.Path] {
				t.Fatalf("doc %d: inadmissible meet %+v", i, r0)
			}
			for _, w := range r0.Witnesses {
				if !s.Contains(r0.Meet, w) {
					t.Fatalf("doc %d: meet %d does not contain witness %d", i, r0.Meet, w)
				}
			}
			// Between the true LCA of the witnesses and the reported
			// meet, every node must be excluded (the climb was forced).
			lca := r0.Witnesses[0]
			for _, w := range r0.Witnesses[1:] {
				m, _, err := Meet2(s, lca, w)
				if err != nil {
					t.Fatal(err)
				}
				lca = m
			}
			for cur := lca; cur != r0.Meet; cur = s.Parent(cur) {
				if !exclude[s.PathOf(cur)] {
					t.Fatalf("doc %d: climb passed admissible node %d (path %s)",
						i, cur, s.PathString(cur))
				}
			}
		}
	}
}

func TestMeetInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 40; i++ {
		doc := xmltree.Random(r, 70)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		n := s.Len()
		inputs := map[bat.OID]bool{}
		for k, kn := 0, r.Intn(14); k < kn; k++ {
			inputs[bat.OID(r.Intn(n)+1)] = true
		}
		res, unmatched, err := meetOIDs(s, slices.Sorted(maps.Keys(inputs)), nil)
		if err != nil {
			t.Fatal(err)
		}
		consumed := map[bat.OID]bool{}
		for _, r0 := range res {
			if len(r0.Witnesses) < 2 {
				t.Fatalf("doc %d: meet %d has %d witnesses, want >= 2",
					i, r0.Meet, len(r0.Witnesses))
			}
			for _, w := range r0.Witnesses {
				if !inputs[w] {
					t.Fatalf("doc %d: witness %d is not an input", i, w)
				}
				if consumed[w] {
					t.Fatalf("doc %d: witness %d consumed twice", i, w)
				}
				consumed[w] = true
				if !s.Contains(r0.Meet, w) {
					t.Fatalf("doc %d: meet %d does not contain witness %d", i, r0.Meet, w)
				}
			}
			// The meet is the exact LCA of its witnesses.
			lca := r0.Witnesses[0]
			for _, w := range r0.Witnesses[1:] {
				m, _, err := Meet2(s, lca, w)
				if err != nil {
					t.Fatal(err)
				}
				lca = m
			}
			if lca != r0.Meet {
				t.Fatalf("doc %d: meet %d is not the LCA of its witnesses (LCA=%d)",
					i, r0.Meet, lca)
			}
		}
		// Witnesses plus unmatched partition the inputs.
		for _, u := range unmatched {
			if consumed[u] {
				t.Fatalf("doc %d: OID %d both matched and unmatched", i, u)
			}
			consumed[u] = true
		}
		if len(consumed) != len(inputs) {
			t.Fatalf("doc %d: consumed %d of %d inputs", i, len(consumed), len(inputs))
		}
		// Results arrive in document order.
		if !sort.SliceIsSorted(res, func(a, b int) bool { return res[a].Meet < res[b].Meet }) {
			t.Fatalf("doc %d: results not in document order", i)
		}
	}
}

func TestMeetOrderInvariance(t *testing.T) {
	s := fig1Store(t)
	oids := []bat.OID{8, 12, 19, 10, 17, 6}
	base, baseUn, err := meetOIDs(s, oids, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]bat.OID(nil), oids...)
		r.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got, gotUn, err := meetOIDs(s, shuffled, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, base) || !reflect.DeepEqual(gotUn, baseUn) {
			t.Fatalf("order %v changed the result:\n%+v\nvs\n%+v", shuffled, got, base)
		}
	}
}

func TestRank(t *testing.T) {
	rs := []Result{
		{Meet: 9, Distance: 7},
		{Meet: 2, Distance: 3},
		{Meet: 1, Distance: 3},
		{Meet: 5, Distance: 1},
	}
	Rank(rs)
	wantOrder := []bat.OID{5, 1, 2, 9}
	for i, w := range wantOrder {
		if rs[i].Meet != w {
			t.Fatalf("Rank order = %v, want %v", rs, wantOrder)
		}
	}
}

func TestMinPairDistance(t *testing.T) {
	cases := []struct {
		lifts []int32
		want  int
	}{
		{[]int32{3, 5, 1}, 4},
		{[]int32{2, 2}, 4},
		{[]int32{0, 0}, 0},
		{[]int32{7}, 0},
		{nil, 0},
	}
	for _, c := range cases {
		var run []entry
		for i, l := range c.lifts {
			run = append(run, entry{orig: bat.OID(i + 1), lifts: l})
		}
		if got := minPairLifts(run); got != c.want {
			t.Errorf("minPairLifts(%v) = %d, want %d", c.lifts, got, c.want)
		}
	}
}

func TestOptionsNilSafe(t *testing.T) {
	var o *Options
	if o.excluded(0) || o.maxLift() != 0 || o.maxDistance() != 0 || o.skipExcluded() {
		t.Error("nil Options should behave as zero values")
	}
}
