package ncq

// A term request's options fall in two halves. The path-shaping half —
// exclude_root, the exclude and restrict patterns and the vague slack
// budget — decides which paths a meet may land on, and reads nothing of
// a member but its path summary, which never changes once the member is
// loaded. So a request compiles its patterns once (Options.shape, in
// fanOut), each member turns that shape into a plan the first time it
// meets it and memoizes the plan, and every later request of the shape
// reads the same read-only maps. The other half — within, max_lift,
// nearest — is read per request and is no part of the plan's key: the
// serving benchmark varies within on every request.

import (
	"fmt"
	"strconv"
	"strings"

	"ncq/internal/core"
	"ncq/internal/memo"
	"ncq/internal/pathexpr"
	"ncq/internal/pathsum"
	"ncq/internal/vague"
)

// planMemoPaths bounds a member's plan memo: each of its two
// generations holds at most this many charged paths per path of the
// member's summary. A plan holds at most two entries a path (the
// exclusion set and the slack map), so a generation keeps about four of
// the dearest plans, and dozens of plans excluding the root alone.
const planMemoPaths = 8

// planCounts counts every plan look-up, over every member in the
// process, as a memo hit or a miss.
var planCounts memo.Counts

// PlanMemoCounts returns how many times, over every member in the
// process, a term request found its plan memoized and how many times it
// compiled one.
func PlanMemoCounts() (hits, misses uint64) { return planCounts.Load() }

// planKey identifies a plan on one member: the path-shaping options and
// nothing else.
type planKey struct {
	excludeRoot       bool
	exclude, restrict string // the patterns in request order, see patternsKey
	slack             int    // the vague budget over the restrict patterns; -1 when exact
}

// patternsKey encodes a pattern list unambiguously: each pattern
// prefixed with its length, so no two lists share a key.
func patternsKey(srcs []string) string {
	var b strings.Builder
	for _, s := range srcs {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

// pathShape is the path-shaping half of a term request with its
// patterns compiled: what every member compiles its plan from.
type pathShape struct {
	key               planKey
	exclude, restrict []*pathexpr.Pattern
}

// shape compiles the path-shaping half of o for a request in vague mode
// vg (nil: exact). A nil o has no shape. A vague budget is part of the
// key only where it applies, over restrict patterns. A negative bound is
// refused here, so no request of any door runs unbounded by one.
func (o *Options) shape(vg *Vague) (*pathShape, error) {
	if o == nil {
		return nil, nil
	}
	s := &o.spec
	if s.Within < 0 || s.MaxLift < 0 {
		return nil, fmt.Errorf("ncq: Within (%d) and MaxLift (%d) must be non-negative", s.Within, s.MaxLift)
	}
	sh := &pathShape{key: planKey{excludeRoot: s.ExcludeRoot, exclude: patternsKey(s.Exclude),
		restrict: patternsKey(s.Restrict), slack: -1}}
	var err error
	if sh.exclude, err = compilePatterns("exclude", s.Exclude); err != nil {
		return nil, err
	}
	if sh.restrict, err = compilePatterns("restrict", s.Restrict); err != nil {
		return nil, err
	}
	if vg != nil && len(sh.restrict) > 0 {
		sh.key.slack = vg.MaxSlack
	}
	return sh, nil
}

func compilePatterns(kind string, srcs []string) ([]*pathexpr.Pattern, error) {
	pats := make([]*pathexpr.Pattern, len(srcs))
	for i, src := range srcs {
		pat, err := pathexpr.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("ncq: %s pattern: %w", kind, err)
		}
		pats[i] = pat
	}
	return pats, nil
}

// memberPlan is a shape compiled against one member's summary, shared
// by every request of that shape on the member and never modified.
type memberPlan struct {
	exclude map[pathsum.PathID]bool // nil when nothing is excluded

	// slack holds, for a vague shape, the minimal slack of every path
	// admitted by relaxing a restrict pattern; paths admitted exactly
	// carry slack 0 and are omitted.
	slack map[pathsum.PathID]int

	// restricted reports that a restrict list applied: the exclusion
	// set is its complement, and excluded meets pass their witnesses up.
	restricted bool
}

// planCharge is what a plan counts against its memo generation, in
// paths: its entries, its key at eight bytes to the path, and one for
// the entry itself.
func planCharge(k planKey, p *memberPlan) int {
	return len(p.exclude) + len(p.slack) + (len(k.exclude)+len(k.restrict))/8 + 1
}

func newPlanMemo(sum *pathsum.Summary) *memo.Memo[planKey, *memberPlan] {
	return memo.New(planMemoPaths*sum.Len(), planCharge, &planCounts)
}

// plan returns the member's plan for sh, compiling and memoizing it on
// the member's first request of that shape.
func (db *Database) plan(sh *pathShape) *memberPlan {
	if p, ok := db.plans.Get(sh.key); ok {
		return p
	}
	p := sh.compile(db.store.Summary())
	db.plans.Add(sh.key, p)
	return p
}

// compile builds the plan of sh on sum. An exact restrict pattern
// admits the paths it selects; a vague one every path within the slack
// budget, tagged with its minimal slack across patterns. Exclude
// patterns (and the root exclusion) stay exact either way.
func (sh *pathShape) compile(sum *pathsum.Summary) *memberPlan {
	p := &memberPlan{}
	if sh.key.excludeRoot || len(sh.exclude) > 0 {
		p.exclude = map[pathsum.PathID]bool{}
		if sh.key.excludeRoot {
			p.exclude[sum.Root()] = true
		}
		for _, pat := range sh.exclude {
			for _, pid := range pat.SelectPaths(sum) {
				p.exclude[pid] = true
			}
		}
	}
	if len(sh.restrict) == 0 {
		return p
	}
	admissible := map[pathsum.PathID]bool{}
	if sh.key.slack < 0 {
		for _, pat := range sh.restrict {
			for _, pid := range pat.SelectPaths(sum) {
				admissible[pid] = true
			}
		}
	} else {
		p.slack = admit(sh.restrict, sum, sh.key.slack, admissible)
	}
	// A whitelist is the complement blacklist with climbing semantics:
	// inadmissible meets pass their witnesses upward until an admissible
	// path is reached.
	if p.exclude == nil {
		p.exclude = map[pathsum.PathID]bool{}
	}
	for _, pid := range sum.ElemPaths() {
		if !admissible[pid] {
			p.exclude[pid] = true
		}
	}
	p.restricted = true
	return p
}

// admit adds to admissible every path within maxSlack rewrites of a
// restrict pattern and returns the minimal slack of the relaxed ones. A
// path admitted by several patterns keeps its cheapest slack; iterating
// paths, not pattern-match maps, keeps the walk deterministic.
func admit(pats []*pathexpr.Pattern, sum *pathsum.Summary, maxSlack int, admissible map[pathsum.PathID]bool) map[pathsum.PathID]int {
	slack := map[pathsum.PathID]int{}
	for _, pid := range sum.AllPaths() {
		best, found := 0, false
		for _, pat := range pats {
			if s, ok := vague.Slack(pat, sum, pid, maxSlack); ok && (!found || s < best) {
				best, found = s, true
			}
		}
		if !found {
			continue
		}
		admissible[pid] = true
		if best > 0 {
			slack[pid] = best
		}
	}
	return slack
}

// compile lowers o for one member of a request whose path-shaping half
// compiled to sh (nil exactly when o is): the member's plan, memoized,
// plus what the request alone decides. In vague mode vg the returned
// vaguePlan reads the plan's slack map and counts into its own fresh
// relaxBySlack.
func (o *Options) compile(db *Database, sh *pathShape, vg *Vague) (*core.Options, vaguePlan) {
	var vp vaguePlan
	if vg != nil {
		vp.relaxBySlack = make([]int, vg.MaxSlack+1)
	}
	if sh == nil {
		return nil, vp
	}
	p := db.plan(sh)
	vp.slack = p.slack
	return &core.Options{
		Exclude:      p.exclude,
		SkipExcluded: o.spec.Nearest || p.restricted,
		MaxLift:      o.spec.MaxLift,
		MaxDistance:  o.spec.Within,
	}, vp
}
