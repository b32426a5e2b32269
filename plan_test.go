package ncq

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ncq/internal/core"
	"ncq/internal/datagen"
	"ncq/internal/pathexpr"
	"ncq/internal/pathsum"
	"ncq/internal/vague"
	"ncq/internal/xmltree"
)

// referenceCompile is how a request's options were lowered before plans
// were memoized: every pattern compiled and every path relaxed again,
// per request and per member. It returns the core options and, for a
// vague request, the minimal slack of every relaxed path.
func referenceCompile(o *Options, sum *pathsum.Summary, vg *Vague) (*core.Options, map[pathsum.PathID]int, error) {
	var slack map[pathsum.PathID]int
	if vg != nil {
		slack = map[pathsum.PathID]int{}
	}
	if o == nil {
		return nil, slack, nil
	}
	opt := &core.Options{MaxLift: o.spec.MaxLift, MaxDistance: o.spec.Within, SkipExcluded: o.spec.Nearest}
	if o.spec.ExcludeRoot || len(o.spec.Exclude) > 0 {
		opt.Exclude = map[pathsum.PathID]bool{}
		if o.spec.ExcludeRoot {
			opt.Exclude[sum.Root()] = true
		}
		for _, src := range o.spec.Exclude {
			pat, err := pathexpr.Compile(src)
			if err != nil {
				return nil, nil, err
			}
			for _, pid := range pat.SelectPaths(sum) {
				opt.Exclude[pid] = true
			}
		}
	}
	if len(o.spec.Restrict) == 0 {
		return opt, slack, nil
	}
	pats := make([]*pathexpr.Pattern, len(o.spec.Restrict))
	for i, src := range o.spec.Restrict {
		pat, err := pathexpr.Compile(src)
		if err != nil {
			return nil, nil, err
		}
		pats[i] = pat
	}
	admissible := map[pathsum.PathID]bool{}
	for _, pid := range sum.AllPaths() {
		best, found := 0, false
		for _, pat := range pats {
			if vg == nil {
				if pat.Matches(sum, pid) {
					best, found = 0, true
				}
			} else if s, ok := vague.Slack(pat, sum, pid, vg.MaxSlack); ok && (!found || s < best) {
				best, found = s, true
			}
		}
		if found {
			admissible[pid] = true
			if best > 0 {
				slack[pid] = best
			}
		}
	}
	if opt.Exclude == nil {
		opt.Exclude = map[pathsum.PathID]bool{}
	}
	for _, pid := range sum.ElemPaths() {
		if !admissible[pid] {
			opt.Exclude[pid] = true
		}
	}
	opt.SkipExcluded = true
	return opt, slack, nil
}

// randomPattern draws a pattern over sum's paths: a path spelled out,
// with steps turned into wildcards, a prefix folded into "//", a label
// misspelled — what the vague mode is for — or, now and then, a
// pattern that does not compile.
func randomPattern(r *rand.Rand, sum *pathsum.Summary) string {
	if r.Intn(12) == 0 {
		return []string{"", "a/b", "/a*", "//@", "[[bad"}[r.Intn(5)]
	}
	pid := pathsum.PathID(r.Intn(sum.Len()))
	labels := sum.Labels(pid)
	attr := ""
	if sum.Kind(pid) == pathsum.Attr {
		attr = "@" + labels[len(labels)-1]
		if r.Intn(3) == 0 {
			attr = "@*"
		}
		labels = labels[:len(labels)-1]
	}
	steps := make([]string, len(labels))
	for i, l := range labels {
		switch r.Intn(8) {
		case 0:
			steps[i] = "*"
		case 1:
			steps[i] = "%"
		case 2:
			steps[i] = l + "x"
		case 3:
			steps[i] = l[1:] + "q"
		default:
			steps[i] = l
		}
	}
	if len(steps) > 1 && r.Intn(3) == 0 {
		return "//" + strings.Join(steps[1+r.Intn(len(steps)-1):], "/") + attr
	}
	return "/" + strings.Join(steps, "/") + attr
}

// randomOptions draws a term request's options and vague mode. The
// options that shape no plan — within, max_lift, nearest — vary too.
func randomOptions(r *rand.Rand, sum *pathsum.Summary) (*Options, *Vague) {
	var vg *Vague
	if s := r.Intn(4) - 1; s >= 0 {
		vg = &Vague{MaxSlack: s}
	}
	if r.Intn(8) == 0 {
		return nil, vg
	}
	o := &Options{}
	if r.Intn(2) == 0 {
		o.ExcludeRoot()
	}
	for range r.Intn(3) {
		o.ExcludePattern(randomPattern(r, sum))
	}
	for range r.Intn(3) {
		o.Restrict(randomPattern(r, sum))
	}
	if r.Intn(3) == 0 {
		o.Nearest()
	}
	return o.Within(r.Intn(4)).MaxLift(r.Intn(4)), vg
}

// FuzzPlanMemoEqualsCompile drives the plan memo against the per-request
// compile it replaced: on random documents and random option sets at
// slack 0–2 and exact, with exclude_root on and off, a plan read cold
// and then warm yields the exclusion set, SkipExcluded, the per-request
// bounds and the slack map of a fresh compile. A warm read of a plan
// the memo can hold is a hit; a second pass over every shape, after
// later shapes may have pushed earlier ones out, is still exact.
func FuzzPlanMemoEqualsCompile(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(6))
	f.Add(int64(2), uint8(200), uint8(12))
	f.Add(int64(3), uint8(3), uint8(4))
	f.Add(int64(31), uint8(120), uint8(24))
	f.Fuzz(func(t *testing.T, seed int64, nodes, shapes uint8) {
		r := rand.New(rand.NewSource(seed))
		db, err := fromDocument(xmltree.Random(r, int(nodes)+1))
		if err != nil {
			t.Fatal(err)
		}
		sum := db.store.Summary()
		type request struct {
			o  *Options
			vg *Vague
		}
		reqs := make([]request, int(shapes)%32+1)
		for i := range reqs {
			reqs[i].o, reqs[i].vg = randomOptions(r, sum)
		}
		for pass := 0; pass < 2; pass++ {
			for _, q := range reqs {
				want, wantSlack, wantErr := referenceCompile(q.o, sum, q.vg)
				sh, err := q.o.shape(q.vg)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%+v: shape error %v, fresh compile %v", q.o.Spec(), err, wantErr)
				}
				if err != nil {
					continue
				}
				for _, read := range []string{"cold", "warm"} {
					hits, _ := PlanMemoCounts()
					got, vp := q.o.compile(db, sh, q.vg)
					h, _ := PlanMemoCounts()
					if (got == nil) != (want == nil) ||
						got != nil && (!maps.Equal(got.Exclude, want.Exclude) || got.SkipExcluded != want.SkipExcluded ||
							got.MaxLift != want.MaxLift || got.MaxDistance != want.MaxDistance) {
						t.Fatalf("pass %d, %s read of %+v slack %v: options %+v, fresh compile %+v", pass, read, q.o.Spec(), q.vg, got, want)
					}
					if !maps.Equal(vp.slack, wantSlack) {
						t.Fatalf("pass %d, %s read of %+v slack %v: slack map %v, fresh compile %v", pass, read, q.o.Spec(), q.vg, vp.slack, wantSlack)
					}
					if (vp.relaxBySlack != nil) != (q.vg != nil) {
						t.Fatalf("%s read: relaxBySlack %v for vague mode %v", read, vp.relaxBySlack, q.vg)
					}
					if read == "warm" && sh != nil && planCharge(sh.key, sh.compile(sum)) <= planMemoPaths*sum.Len() && h != hits+1 {
						t.Fatalf("pass %d: the warm read of %+v slack %v missed the memo", pass, q.o.Spec(), q.vg)
					}
				}
			}
		}
	})
}

// TestPlanMemoConcurrentShapes runs requests of mixed shapes — exact and
// vague restricts, exclusions, nearest, varying within — from eight
// goroutines at once on one member whose plan memo turns over its
// generations meanwhile (run with -race). Every answer equals the one a
// member with a cold memo gives.
func TestPlanMemoConcurrentShapes(t *testing.T) {
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 3, YearFrom: 1997, YearTo: 1999, PubsPerVenueYear: 4})
	db, err := fromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"inproceedings", "article", "author", "year"}
	var reqs []Request
	for i := 0; i < 24; i++ {
		o := ExcludeRoot().Within(100 + i)
		label := labels[i/6]
		var vg *Vague
		switch i % 6 {
		case 1:
			o.Restrict("//" + label)
		case 2:
			o.Restrict("/dblp/inprocedings")
			vg = &Vague{MaxSlack: 1 + i/6%2}
		case 3:
			o.ExcludePattern("//" + label).Nearest()
		case 4:
			o.Restrict("//" + label).Restrict("/dblp/inprocedings")
			vg = &Vague{MaxSlack: 2}
		case 5:
			o.Restrict("/dblp/" + label).MaxLift(4)
		}
		reqs = append(reqs, Request{Terms: []string{"ICDE", "1998"}, Options: o, Vague: vg})
	}
	want := make([]*Result, len(reqs))
	for i, req := range reqs {
		cold, err := fromDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = cold.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(reqs); k++ {
				i := (g*7 + k*5) % len(reqs)
				got, err := db.Run(context.Background(), reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Meets, want[i].Meets) || !reflect.DeepEqual(got.RelaxationsBySlack, want[i].RelaxationsBySlack) {
					t.Errorf("request %d (%+v): %d meets %v, cold member %d meets %v", i, reqs[i].Options.Spec(),
						len(got.Meets), got.RelaxationsBySlack, len(want[i].Meets), want[i].RelaxationsBySlack)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, gens := db.plans.Held(); gens < 2 {
		t.Errorf("the plan memo started %d generations, want the run to turn it over", gens)
	}
}

// TestInvalidPatternRefusedOnEmptyCorpus: a pattern that does not
// compile fails a term request before any member runs, so an empty
// corpus refuses it exactly as a loaded one does, and the error names
// the pattern, not a member.
func TestInvalidPatternRefusedOnEmptyCorpus(t *testing.T) {
	loaded := NewCorpus()
	db, err := fromDocument(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Add("d", db); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Options{Restrict("[[bad"), ExcludeRoot().ExcludePattern("//a*")} {
		for name, q := range map[string]Querier{"empty corpus": NewCorpus(), "corpus": loaded, "database": db} {
			_, err := q.Run(context.Background(), Request{Terms: []string{"Bit"}, Options: o})
			if err == nil || !strings.Contains(err.Error(), "pattern") || strings.Contains(err.Error(), "corpus") {
				t.Errorf("%s, %+v: err = %v, want the pattern's error", name, o.Spec(), err)
			}
			if errors.Is(err, ErrUnknownDoc) {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestNegativeBoundRefused: a negative Within or MaxLift is refused by
// every door, as the wire refuses "within" and "max_lift" below zero —
// never run as no bound at all, nor keyed apart from a bound of zero.
func TestNegativeBoundRefused(t *testing.T) {
	db := fig1DB(t)
	c := NewCorpus()
	if err := c.Add("d", db); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, o := range []*Options{Within(-1), ExcludeRoot().MaxLift(-2)} {
		for name, q := range map[string]Querier{"empty corpus": NewCorpus(), "corpus": c, "database": db} {
			if res, err := q.Run(ctx, Request{Terms: []string{"Bit", "1999"}, Options: o}); err == nil || !strings.Contains(err.Error(), "non-negative") {
				t.Errorf("%s, %+v: Run = %+v, %v; want a refusal", name, o.Spec(), res, err)
			}
		}
		if meets, _, err := db.MeetOf(ctx, o, []NodeID{8, 12}); err == nil {
			t.Errorf("%+v: MeetOf = %+v, want a refusal", o.Spec(), meets)
		}
	}
	if _, err := db.Run(ctx, Request{Terms: []string{"Bit", "1999"}, Options: Within(0).MaxLift(0)}); err != nil {
		t.Errorf("zero bounds: %v", err)
	}
}
