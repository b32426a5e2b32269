package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

func fig1Store(t *testing.T) *monetx.Store {
	t.Helper()
	s, err := monetx.Load(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func artPath(t *testing.T, s *monetx.Store) pathsum.PathID {
	t.Helper()
	p, ok := s.Summary().Lookup([]string{"bibliography", "institute", "article"})
	if !ok {
		t.Fatal("article path missing")
	}
	return p
}

func TestMeetSetsPaperExample(t *testing.T) {
	s := fig1Store(t)
	// Full-text "Bit" = {o8}; "1999" = {o12, o19}. The minimal meet is
	// the first article (o3); the second 1999 finds no partner.
	res, err := MeetSets(s, []bat.OID{8}, []bat.OID{12, 19}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("MeetSets = %+v, want exactly one meet", res)
	}
	r := res[0]
	if r.Meet != 3 {
		t.Errorf("meet = o%d, want o3 (the article)", r.Meet)
	}
	if !reflect.DeepEqual(r.Witnesses, []bat.OID{8, 12}) {
		t.Errorf("witnesses = %v, want [8 12]", r.Witnesses)
	}
	if r.Distance != 5 {
		t.Errorf("distance = %d, want 5", r.Distance)
	}
	if r.Path != artPath(t, s) {
		t.Errorf("path = %s, want the article path", s.Summary().String(r.Path))
	}
}

func TestMeetSetsSameOIDInBothSets(t *testing.T) {
	s := fig1Store(t)
	// "Bob" and "Byte" both hit ⟨o15,"Bob Byte"⟩: the meet is the cdata
	// node itself at distance 0 (paper Section 3.1, second example).
	res, err := MeetSets(s, []bat.OID{15}, []bat.OID{15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 15 || res[0].Distance != 0 {
		t.Fatalf("MeetSets({15},{15}) = %+v, want meet o15 at distance 0", res)
	}
	if !reflect.DeepEqual(res[0].Witnesses, []bat.OID{15}) {
		t.Errorf("witnesses = %v", res[0].Witnesses)
	}
}

func TestMeetSetsTwoYears(t *testing.T) {
	s := fig1Store(t)
	// The two "1999" cdata nodes meet at the institute (o2).
	res, err := MeetSets(s, []bat.OID{12}, []bat.OID{19}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 2 {
		t.Fatalf("MeetSets({12},{19}) = %+v, want institute o2", res)
	}
	if res[0].Distance != 6 {
		t.Errorf("distance = %d, want 6", res[0].Distance)
	}
}

func TestMeetSetsMinimality(t *testing.T) {
	s := fig1Store(t)
	// Both years against both titles: each article pairs its own year
	// and title; no cross-article meets at the institute remain.
	res, err := MeetSets(s, []bat.OID{12, 19}, []bat.OID{10, 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("MeetSets = %+v, want two article meets", res)
	}
	if res[0].Meet != 3 || res[1].Meet != 13 {
		t.Errorf("meets = o%d,o%d, want o3,o13", res[0].Meet, res[1].Meet)
	}
	for _, r := range res {
		if len(r.Witnesses) != 2 {
			t.Errorf("meet o%d witnesses = %v, want one year and one title", r.Meet, r.Witnesses)
		}
	}
}

func TestMeetSetsInputOrderInvariance(t *testing.T) {
	s := fig1Store(t)
	a, err := MeetSets(s, []bat.OID{12, 19}, []bat.OID{10, 17}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeetSets(s, []bat.OID{19, 12}, []bat.OID{17, 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("input order changed the result:\n%+v\nvs\n%+v", a, b)
	}
}

func TestMeetSetsDuplicatesIgnored(t *testing.T) {
	s := fig1Store(t)
	a, err := MeetSets(s, []bat.OID{8, 8, 8}, []bat.OID{12, 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeetSets(s, []bat.OID{8}, []bat.OID{12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("duplicates changed the result: %+v vs %+v", a, b)
	}
}

func TestMeetSetsEmptyInputs(t *testing.T) {
	s := fig1Store(t)
	if res, err := MeetSets(s, nil, []bat.OID{12}, nil); err != nil || res != nil {
		t.Errorf("MeetSets(nil, ...) = (%v,%v), want (nil,nil)", res, err)
	}
	if res, err := MeetSets(s, []bat.OID{8}, nil, nil); err != nil || res != nil {
		t.Errorf("MeetSets(..., nil) = (%v,%v), want (nil,nil)", res, err)
	}
}

func TestMeetSetsHeterogeneousInputRejected(t *testing.T) {
	s := fig1Store(t)
	// o8 (lastname cdata) and o12 (year cdata) have different paths.
	if _, err := MeetSets(s, []bat.OID{8, 12}, []bat.OID{19}, nil); err == nil {
		t.Error("heterogeneous first set accepted")
	}
	if _, err := MeetSets(s, []bat.OID{19}, []bat.OID{8, 12}, nil); err == nil {
		t.Error("heterogeneous second set accepted")
	}
	if _, err := MeetSets(s, []bat.OID{0}, []bat.OID{19}, nil); err == nil {
		t.Error("invalid OID accepted")
	}
}

func TestMeetSetsExclude(t *testing.T) {
	s := fig1Store(t)
	art := artPath(t, s)
	opt := &core.Options{Exclude: map[pathsum.PathID]bool{art: true}}
	// meet_P semantics: the article meet is consumed but not reported,
	// and nothing above is found because the inputs are gone.
	res, err := MeetSets(s, []bat.OID{8}, []bat.OID{12}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("excluded meet reported: %+v", res)
	}
}

func TestMeetSetsSkipExcluded(t *testing.T) {
	s := fig1Store(t)
	art := artPath(t, s)
	opt := &core.Options{Exclude: map[pathsum.PathID]bool{art: true}, SkipExcluded: true}
	// Extension semantics: the match lifts past the article and lands
	// on the institute.
	res, err := MeetSets(s, []bat.OID{8}, []bat.OID{12}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 2 {
		t.Fatalf("SkipExcluded = %+v, want institute o2", res)
	}
	if !reflect.DeepEqual(res[0].Witnesses, []bat.OID{8, 12}) {
		t.Errorf("witnesses = %v", res[0].Witnesses)
	}
}

func TestMeetSetsMaxDistance(t *testing.T) {
	s := fig1Store(t)
	res, err := MeetSets(s, []bat.OID{8}, []bat.OID{12}, &core.Options{MaxDistance: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("MaxDistance 4 let a distance-5 meet through: %+v", res)
	}
	res, err = MeetSets(s, []bat.OID{8}, []bat.OID{12}, &core.Options{MaxDistance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("MaxDistance 5 blocked a distance-5 meet: %+v", res)
	}
}

func TestMeetSetsMaxLift(t *testing.T) {
	s := fig1Store(t)
	// o8 needs 3 lifts to reach the article; cap at 2 starves the set.
	res, err := MeetSets(s, []bat.OID{8}, []bat.OID{12}, &core.Options{MaxLift: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("MaxLift 2 still met: %+v", res)
	}
	res, err = MeetSets(s, []bat.OID{8}, []bat.OID{12}, &core.Options{MaxLift: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Meet != 3 {
		t.Errorf("MaxLift 3 = %+v, want the article meet", res)
	}
}

func TestMeetSetsBATEquivalence(t *testing.T) {
	s := fig1Store(t)
	cases := []struct {
		o1, o2 []bat.OID
		opt    *core.Options
	}{
		{[]bat.OID{8}, []bat.OID{12, 19}, nil},
		{[]bat.OID{12, 19}, []bat.OID{10, 17}, nil},
		{[]bat.OID{15}, []bat.OID{15}, nil},
		{[]bat.OID{12}, []bat.OID{19}, nil},
		{[]bat.OID{8}, []bat.OID{12}, &core.Options{MaxDistance: 4}},
		{[]bat.OID{8}, []bat.OID{12}, &core.Options{MaxLift: 2}},
	}
	for i, c := range cases {
		want, err := MeetSets(s, c.o1, c.o2, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeetSetsBAT(s, c.o1, c.o2, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Errorf("case %d: BAT variant differs:\narray: %+v\nbat:   %+v", i, want, got)
		}
	}
}

func TestMeetSetsBATEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		doc := xmltree.Random(r, 60)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Pick two random homogeneous groups: all OIDs of one path each.
		paths := s.Summary().ElemPaths()
		p1 := paths[r.Intn(len(paths))]
		p2 := paths[r.Intn(len(paths))]
		o1 := append([]bat.OID(nil), s.OIDsAt(p1)...)
		o2 := append([]bat.OID(nil), s.OIDsAt(p2)...)
		want, err := MeetSets(s, o1, o2, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeetSetsBAT(s, o1, o2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("doc %d: BAT variant differs on paths %s × %s:\narray: %+v\nbat:   %+v",
				i, s.Summary().String(p1), s.Summary().String(p2), want, got)
		}
	}
}

// resultsEqual compares result slices while tolerating nil-vs-empty.
func resultsEqual(a, b []core.Result) bool {
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

func TestMeetSetsWitnessInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		doc := xmltree.Random(r, 60)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		paths := s.Summary().ElemPaths()
		p1 := paths[r.Intn(len(paths))]
		p2 := paths[r.Intn(len(paths))]
		o1 := s.OIDsAt(p1)
		o2 := s.OIDsAt(p2)
		res, err := MeetSets(s, o1, o2, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[bat.OID]bool{}
		for _, r0 := range res {
			if len(r0.Witnesses) < 1 {
				t.Fatalf("doc %d: empty witness set", i)
			}
			for _, w := range r0.Witnesses {
				if seen[w] {
					t.Fatalf("doc %d: witness %d consumed twice", i, w)
				}
				seen[w] = true
				if !s.Contains(r0.Meet, w) {
					t.Fatalf("doc %d: meet %d does not contain witness %d", i, r0.Meet, w)
				}
			}
		}
	}
}

func TestMeetPairsBaselineExplodes(t *testing.T) {
	s := fig1Store(t)
	// Inputs: both years and both titles. The minimal MeetSets reports
	// exactly the two articles; the pairwise baseline computes all four
	// cross pairs and additionally surfaces the cross-article meets at
	// the institute — the "not so interesting" implied answers.
	o1 := []bat.OID{12, 19}
	o2 := []bat.OID{10, 17}
	minimal, err := MeetSets(s, o1, o2, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, pairs, err := MeetPairsBaseline(s, o1, o2)
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 4 {
		t.Errorf("pairs computed = %d, want 4", pairs)
	}
	if len(minimal) != 2 {
		t.Fatalf("minimal = %+v", minimal)
	}
	if len(baseline) <= len(minimal) {
		t.Errorf("baseline (%d results) should exceed minimal (%d)", len(baseline), len(minimal))
	}
	// The baseline contains the institute (cross-article pairs).
	foundInstitute := false
	for _, r := range baseline {
		if r.Meet == 2 {
			foundInstitute = true
		}
	}
	if !foundInstitute {
		t.Errorf("baseline missing the institute: %+v", baseline)
	}
	// Every minimal meet also appears in the baseline.
	for _, m := range minimal {
		found := false
		for _, b := range baseline {
			if b.Meet == m.Meet {
				found = true
			}
		}
		if !found {
			t.Errorf("minimal meet o%d missing from baseline", m.Meet)
		}
	}
}

func TestMeetPairsBaselineQuadraticWork(t *testing.T) {
	s := fig1Store(t)
	// Duplicates are ignored; work is |O1|·|O2| after dedupe.
	_, pairs, err := MeetPairsBaseline(s, []bat.OID{12, 12, 19}, []bat.OID{10, 17, 17})
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 4 {
		t.Errorf("pairs = %d, want 4 (2x2 after dedupe)", pairs)
	}
	if _, _, err := MeetPairsBaseline(s, []bat.OID{0}, []bat.OID{1}); err == nil {
		t.Error("invalid OID accepted")
	}
}

func TestMeetPairsBaselineEmpty(t *testing.T) {
	s := fig1Store(t)
	res, pairs, err := MeetPairsBaseline(s, nil, []bat.OID{10})
	if err != nil || len(res) != 0 || pairs != 0 {
		t.Errorf("empty baseline = (%v,%d,%v)", res, pairs, err)
	}
}

// TestAncestorSetBaselineAgrees checks the second ablation baseline:
// same meet, never fewer look-ups than the steered algorithm needs
// joins on pairs where the first argument sits below the meet.
func TestAncestorSetBaselineAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	doc := xmltree.Random(r, 80)
	s, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	n := int(s.Len())
	for trial := 0; trial < 500; trial++ {
		o1 := bat.OID(r.Intn(n)) + 1
		o2 := bat.OID(r.Intn(n)) + 1
		m, joins, err := core.Meet2(s, o1, o2)
		if err != nil {
			t.Fatal(err)
		}
		am, alookups := Meet2AncestorSet(s, o1, o2)
		if am != m {
			t.Fatalf("ancestor-set baseline disagrees: %d vs %d", am, m)
		}
		// The baseline walks all of o1's ancestors plus o2's climb; the
		// steered version walks only inside the meet's subtree.
		if alookups < joins-1 {
			t.Fatalf("baseline lookups %d < steered joins %d for (%d,%d)", alookups, joins, o1, o2)
		}
	}
}
