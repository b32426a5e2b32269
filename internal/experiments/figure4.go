package experiments

// The set-oriented meet of the paper's Figure 4 and the baselines the
// evaluation measures against. None of it serves a request — the
// system's operator is core's Figure-3 pair meet and Figure-5 roll-up —
// so it lives here, with the experiments that run it.

import (
	"fmt"
	"slices"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
)

// MeetSets computes the minimal meets of two homogeneous sets of
// objects — the procedure meet_S of the paper's Figure 4. All objects
// of o1 must share one path, all objects of o2 another (the shape a
// full-text search delivers per relation). Duplicate inputs are
// ignored.
//
// The deeper set is lifted with bulk parent steps until the two paths
// coincide; the intersection of the current ancestor sets yields meets.
// "As soon as the first meet is found subsequent meets are not
// considered anymore because the elements are removed from the input
// sets" — consumed inputs stop participating, so the result is minimal
// and independent of input order. Only cross-set collisions count, per
// the paper's D := O1 ∩ O2 (objects occurring in both input sets meet
// at themselves at distance zero).
//
// Results are returned in document order of the meets.
func MeetSets(s *monetx.Store, o1, o2 []bat.OID, opt *core.Options) ([]core.Result, error) {
	a1, p1, err := newGroup(s, o1)
	if err != nil {
		return nil, fmt.Errorf("experiments: MeetSets: first set: %w", err)
	}
	a2, p2, err := newGroup(s, o2)
	if err != nil {
		return nil, fmt.Errorf("experiments: MeetSets: second set: %w", err)
	}
	if len(a1) == 0 || len(a2) == 0 {
		return nil, nil
	}
	o := options(opt)
	sum := s.Summary()
	var (
		results        []core.Result
		lifts1, lifts2 int32
	)
	for len(a1) > 0 && len(a2) > 0 {
		if p1 == p2 {
			// D := O1 ∩ O2 over the current ancestors.
			cur2 := make(map[bat.OID][]int, len(a2))
			for i, a := range a2 {
				cur2[a.cur] = append(cur2[a.cur], i)
			}
			consumed1 := make([]bool, len(a1))
			consumed2 := make([]bool, len(a2))
			matched := map[bat.OID][]contribution{}
			for i, a := range a1 {
				if idxs, ok := cur2[a.cur]; ok {
					consumed1[i] = true
					matched[a.cur] = append(matched[a.cur], contribution{a.orig, lifts1})
					for _, j := range idxs {
						if !consumed2[j] {
							consumed2[j] = true
							matched[a.cur] = append(matched[a.cur], contribution{a2[j].orig, lifts2})
						}
					}
				}
			}
			for m, contribs := range matched {
				excluded := o.Exclude[s.PathOf(m)]
				if excluded && o.SkipExcluded {
					// Extension: let the contributions continue to lift.
					for i, a := range a1 {
						if a.cur == m {
							consumed1[i] = false
						}
					}
					for j, a := range a2 {
						if a.cur == m {
							consumed2[j] = false
						}
					}
					continue
				}
				if excluded {
					continue // meet_P: consumed but not reported
				}
				if d := o.MaxDistance; d > 0 && int(lifts1+lifts2) > d {
					continue // beyond the pairwise bound: consumed, not reported
				}
				results = append(results, emit(s, m, contribs))
			}
			a1 = compact(a1, consumed1)
			a2 = compact(a2, consumed2)
			if p1 == sum.Root() {
				break
			}
		}
		// Steer by the prefix order, exactly as in meet_2.
		switch {
		case p1 != p2 && sum.IsPrefix(p2, p1):
			a1, p1 = liftGroup(s, a1, p1, o.MaxLift, &lifts1)
		case p1 != p2 && sum.IsPrefix(p1, p2):
			a2, p2 = liftGroup(s, a2, p2, o.MaxLift, &lifts2)
		default:
			a1, p1 = liftGroup(s, a1, p1, o.MaxLift, &lifts1)
			a2, p2 = liftGroup(s, a2, p2, o.MaxLift, &lifts2)
		}
	}
	return core.SortByDocOrder(results), nil
}

// MeetSetsBAT is MeetSets expressed purely with BAT primitives — the
// relational execution the paper runs inside the Monet server ("the
// function parent(O1,O2) is a shortcut for join(...), a binary join on
// associations"). Each group is an association BAT (original OID →
// current ancestor); lifting is a join with the store's child→parent
// relation of the group's path; intersection, consumption and
// filtering are BAT algebra. Its results are identical to MeetSets; the
// ablation compares the two execution styles.
func MeetSetsBAT(s *monetx.Store, o1, o2 []bat.OID, opt *core.Options) ([]core.Result, error) {
	a1, p1, err := newGroup(s, o1)
	if err != nil {
		return nil, fmt.Errorf("experiments: MeetSetsBAT: first set: %w", err)
	}
	a2, p2, err := newGroup(s, o2)
	if err != nil {
		return nil, fmt.Errorf("experiments: MeetSetsBAT: second set: %w", err)
	}
	if len(a1) == 0 || len(a2) == 0 {
		return nil, nil
	}
	b1 := bat.New[bat.OID]("O1")
	for _, a := range a1 {
		b1.Append(a.orig, a.cur)
	}
	b2 := bat.New[bat.OID]("O2")
	for _, a := range a2 {
		b2.Append(a.orig, a.cur)
	}
	o := options(opt)
	sum := s.Summary()
	var (
		results        []core.Result
		lifts1, lifts2 int32
	)
	// lift is the join(O, parent) step of Figure 4. It never reaches
	// the root path, whose relation is nil: equal paths at the root end
	// the loop, and the root is a prefix of every other path.
	lift := func(b *bat.BAT[bat.OID], p pathsum.PathID, lifts *int32) (*bat.BAT[bat.OID], pathsum.PathID) {
		*lifts++
		if o.MaxLift > 0 && int(*lifts) > o.MaxLift {
			b = bat.New[bat.OID]("spent") // beyond MaxLift: every contribution dropped
		} else {
			b = bat.Join(b, s.ParentBAT(p))
		}
		return b, sum.Parent(p)
	}
	for b1.Len() > 0 && b2.Len() > 0 {
		if p1 == p2 {
			consume := map[bat.OID]struct{}{}
			for m := range bat.IntersectTails(b1, b2) {
				excluded := o.Exclude[s.PathOf(m)]
				if excluded && o.SkipExcluded {
					continue // not consumed, keeps lifting
				}
				consume[m] = struct{}{}
				if excluded {
					continue // consumed, not reported
				}
				if md := o.MaxDistance; md > 0 && int(lifts1+lifts2) > md {
					continue // consumed, beyond the bound
				}
				var contribs []contribution
				for i := 0; i < b1.Len(); i++ {
					if b1.Tail(i) == m {
						contribs = append(contribs, contribution{b1.Head(i), lifts1})
					}
				}
				for i := 0; i < b2.Len(); i++ {
					if b2.Tail(i) == m {
						contribs = append(contribs, contribution{b2.Head(i), lifts2})
					}
				}
				results = append(results, emit(s, m, contribs))
			}
			if len(consume) > 0 {
				b1 = bat.SelectTailNotIn(b1, consume)
				b2 = bat.SelectTailNotIn(b2, consume)
			}
			if p1 == sum.Root() {
				break
			}
		}
		switch {
		case p1 != p2 && sum.IsPrefix(p2, p1):
			b1, p1 = lift(b1, p1, &lifts1)
		case p1 != p2 && sum.IsPrefix(p1, p2):
			b2, p2 = lift(b2, p2, &lifts2)
		default:
			b1, p1 = lift(b1, p1, &lifts1)
			b2, p2 = lift(b2, p2, &lifts2)
		}
	}
	return core.SortByDocOrder(results), nil
}

// MeetPairsBaseline computes the meet of every cross pair of the two
// input sets — the naive semantics the paper rejects: "If we apply the
// original motivation to such an input we will end up with a
// combinatorial explosion of the result size" (Section 1). It is the
// comparison point for the minimality of MeetSets: same inputs,
// |O1|·|O2| meet_2 computations, and a result bag whose size is the
// product rather than at most min(|O1|,|O2|).
//
// Results are deduplicated per meet node (witness lists merged) but
// every pair is still computed and counted; pairsComputed reports the
// work done. Duplicate inputs are ignored like in MeetSets.
func MeetPairsBaseline(s *monetx.Store, o1, o2 []bat.OID) (results []core.Result, pairsComputed int, err error) {
	d1 := bat.SortDedup(slices.Clone(o1))
	d2 := bat.SortDedup(slices.Clone(o2))
	byMeet := make(map[bat.OID]*core.Result)
	for _, a := range d1 {
		for _, b := range d2 {
			m, joins, err := core.Meet2(s, a, b)
			if err != nil {
				return nil, pairsComputed, err
			}
			pairsComputed++
			r := byMeet[m]
			if r == nil {
				r = &core.Result{Meet: m, Path: s.PathOf(m)}
				byMeet[m] = r
			}
			for _, w := range []bat.OID{a, b} {
				if !slices.Contains(r.Witnesses, w) {
					r.Witnesses = append(r.Witnesses, w)
				}
			}
			r.Distance += joins
		}
	}
	results = make([]core.Result, 0, len(byMeet))
	for _, r := range byMeet {
		slices.Sort(r.Witnesses)
		results = append(results, *r)
	}
	return core.SortByDocOrder(results), pairsComputed, nil
}

// Meet2AncestorSet is the baseline of the steering ablation: it
// collects the full ancestor set of o1 (as a user without path
// information would) and walks o2 upward until it hits the set. It
// returns the meet and the parent look-ups spent, depth(o1) +
// dist(o2, meet) — more than core.Meet2 joins whenever o1 sits below
// the meet.
func Meet2AncestorSet(s *monetx.Store, o1, o2 bat.OID) (bat.OID, int) {
	lookups := 0
	anc := make(map[bat.OID]struct{})
	for cur := o1; cur != bat.Nil; cur = s.Parent(cur) {
		anc[cur] = struct{}{}
		lookups++
	}
	for cur := o2; ; cur = s.Parent(cur) {
		if _, ok := anc[cur]; ok {
			return cur, lookups
		}
		lookups++
	}
}

// options is opt with nil read as the plain meet.
func options(opt *core.Options) core.Options {
	if opt == nil {
		return core.Options{}
	}
	return *opt
}

// contribution is one input that reached a meet: the original OID plus
// the number of parent joins it took.
type contribution struct {
	orig  bat.OID
	lifts int32
}

// emit assembles a Result from the contributions that collided on m.
// The same original OID may arrive from both input sets (a full-text
// search where two terms hit one association); it is reported as a
// single witness.
func emit(s *monetx.Store, m bat.OID, contribs []contribution) core.Result {
	seen := make(map[bat.OID]struct{}, len(contribs))
	ws := make([]bat.OID, 0, len(contribs))
	total := 0
	for _, c := range contribs {
		if _, dup := seen[c.orig]; dup {
			continue
		}
		seen[c.orig] = struct{}{}
		ws = append(ws, c.orig)
		total += int(c.lifts)
	}
	slices.Sort(ws)
	return core.Result{Meet: m, Path: s.PathOf(m), Witnesses: ws, Distance: total}
}

type assoc struct {
	orig bat.OID
	cur  bat.OID
}

// newGroup validates that all OIDs share one path and initialises the
// association list (orig = cur), dropping duplicates.
func newGroup(s *monetx.Store, oids []bat.OID) ([]assoc, pathsum.PathID, error) {
	if len(oids) == 0 {
		return nil, pathsum.Invalid, nil
	}
	seen := make(map[bat.OID]struct{}, len(oids))
	out := make([]assoc, 0, len(oids))
	p := pathsum.Invalid
	for _, o := range oids {
		if !s.ValidOID(o) {
			return nil, pathsum.Invalid, fmt.Errorf("OID %d not in store (have 1..%d)", o, s.Len())
		}
		if p == pathsum.Invalid {
			p = s.PathOf(o)
		} else if s.PathOf(o) != p {
			return nil, pathsum.Invalid, fmt.Errorf(
				"set not homogeneous: OID %d has path %s, expected %s",
				o, s.PathString(o), s.Summary().String(p))
		}
		if _, dup := seen[o]; !dup {
			seen[o] = struct{}{}
			out = append(out, assoc{orig: o, cur: o})
		}
	}
	return out, p, nil
}

// liftGroup replaces every current ancestor by its parent — the bulk
// join(O, parent) of Figure 4 — and advances the group's path. A
// contribution whose lift count would exceed maxLift (> 0) is dropped.
func liftGroup(s *monetx.Store, as []assoc, p pathsum.PathID, maxLift int, lifts *int32) ([]assoc, pathsum.PathID) {
	*lifts++
	out := as[:0]
	for _, a := range as {
		if maxLift > 0 && int(*lifts) > maxLift {
			continue
		}
		parent := s.Parent(a.cur)
		if parent == bat.Nil {
			continue
		}
		out = append(out, assoc{orig: a.orig, cur: parent})
	}
	return out, s.Summary().Parent(p)
}

func compact(as []assoc, consumed []bool) []assoc {
	out := as[:0]
	for i, a := range as {
		if !consumed[i] {
			out = append(out, a)
		}
	}
	return out
}
