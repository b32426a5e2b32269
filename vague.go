package ncq

// The vague-constraints query mode: path constraints match
// approximately (internal/vague's relaxation lattice over the path
// summary) and the score blends structural slack into meet distance.
// This file holds the request surface (the Vague spec) and the blend.
// Which paths a budget admits, at what slack, is part of a member's
// memoized plan (plan.go): it is relaxed once per member and (pattern,
// budget), not per request. Execution itself rides the ordinary
// incremental pipeline of results.go, which is what keeps the k-way
// merge, limit push-down, cursors and streaming working unchanged.

import (
	"errors"
	"fmt"

	"ncq/internal/core"
	"ncq/internal/pathsum"
	"ncq/internal/vague"
)

// MaxVagueSlack bounds Vague.MaxSlack — beyond it a relaxed pattern
// admits nearly every path and the ranking decays to noise.
const MaxVagueSlack = vague.SlackLimit

// Vague selects the approximate-constraints mode of a term request:
// the restrict patterns of Request.Options match paths within MaxSlack
// rewrites (label edit distance, skipped ancestors, dropped steps —
// see internal/vague for the cost model), and every answer's ranking
// distance is blended as distance + vague.SlackWeight·slack, so an
// answer found by bending a constraint must clearly beat the exact
// answers to outrank them. Exclude patterns stay exact: relaxing a
// blacklist would discard answers the user never asked to lose.
//
// Expand additionally broadens each term that has a synonym class in
// the corpus thesaurus (SetThesaurus) to the nodes containing the term
// or any entry of its class, each matched as written by the same
// case-sensitive substring locate as a plain term (Database.Locate).
// A term with no class, and every term when no thesaurus is installed,
// locates exactly as without Expand.
//
// The zero spec ({"max_slack": 0, "expand": false}) is canonically —
// and byte-for-byte — equivalent to the exact request: every rewrite
// costs at least one slack, so a zero budget admits exactly the exact
// matches, and the request canonicalises identically (same cache
// entries, same cursor fingerprints).
type Vague struct {
	// MaxSlack is the structural-slack budget per restrict pattern and
	// path; 0 admits exact matches only. At most MaxVagueSlack.
	MaxSlack int `json:"max_slack"`

	// Expand broadens each term with a synonym class in the corpus
	// thesaurus to the union of its class's substring matches.
	Expand bool `json:"expand,omitempty"`
}

// active reports whether the spec changes anything relative to the
// exact path — the nil-safe gate canonicalisation keys off.
func (v *Vague) active() bool {
	return v != nil && (v.MaxSlack > 0 || v.Expand)
}

// validate bounds the spec; nil is always valid (exact mode).
func (v *Vague) validate() error {
	if v == nil {
		return nil
	}
	if v.MaxSlack < 0 {
		return errors.New("ncq: vague: negative max_slack")
	}
	if v.MaxSlack > MaxVagueSlack {
		return fmt.Errorf("ncq: vague: max_slack %d exceeds the limit of %d", v.MaxSlack, MaxVagueSlack)
	}
	return nil
}

// canonical renders the spec for cache keys and cursor fingerprints.
// An inactive spec renders empty ON PURPOSE: a vague request that
// relaxes nothing and expands nothing is the exact request, and must
// share its cache entries and cursors byte for byte.
func (v *Vague) canonical() string {
	if !v.active() {
		return ""
	}
	return fmt.Sprintf(" vague=%d,%t", v.MaxSlack, v.Expand)
}

// vaguePlan is what a vague request blends by on one member: the
// member's memoized minimal slack of every relaxed path (memberPlan's
// slack map, shared and read-only), and the relaxation counts this
// request's execution fills in as it blends — index = slack used, so
// index 0 is never touched. The zero vaguePlan is the exact mode's.
type vaguePlan struct {
	slack        map[pathsum.PathID]int
	relaxBySlack []int
}

// blend folds each row's structural slack into its ranking distance
// and books the relaxations used. It rewrites the roll-up's rows in
// place, before the member's counting sort ranks them, so the blended
// score IS the distance every later layer — member order, k-way merge,
// coordinator — orders by; nothing downstream knows vague mode exists.
func (p *vaguePlan) blend(rows []core.Row) {
	for i := range rows {
		if s := p.slack[rows[i].Path]; s > 0 {
			rows[i].Distance = int32(vague.Blend(int(rows[i].Distance), s))
			p.relaxBySlack[s]++
		}
	}
}
