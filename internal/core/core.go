// Package core implements the meet operator, the primary contribution
// of the paper (Section 3): computing the "nearest concept" — the
// lowest common ancestor — of nodes in an XML syntax tree stored in
// Monet transform representation. It is the operator the system
// serves, in the paper's two served forms:
//
//   - Meet2 computes the meet of a pair of OIDs, steering the ascent by
//     the prefix order on their paths so that no superfluous parent
//     look-ups happen (Figure 3).
//   - MeetInto computes the meets of any number of input sets — one
//     per search term — by rolling them up from the leaves (Figure 5),
//     the form used to post-process full-text results. A node is a
//     meet as soon as at least two live contributions land on it. It
//     is the one entry into the roll-up; MeetMultiContext is the same
//     meet copied out as []Result.
//
// The roll-up is one pass over the inputs in document order. OIDs are
// preorder, so the nodes still holding unsettled contributions always
// form one root-to-leaf chain, and each node's preorder interval tells
// when the next input has left its subtree: then the node is decided
// and what survives lifts up the chain. The pass costs O(inputs +
// ancestors walked). Its answer is columns the caller owns (Answers):
// a row per meet and one witness arena, and nothing is sorted but the
// rows, once, into document order. It relies on the store's intervals
// and depths being those of its parent array, which loading derives
// and restoring a snapshot checks (rollup.go has the details).
//
// The set-oriented meet of two homogeneous sets (Figure 4) and the
// baselines the evaluation compares against live with the experiments
// that run them, in internal/experiments.
//
// The Section 4 extensions are available through Options: result-type
// restriction (meet_P), distance bounds, and distance-based ranking.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
)

// Result is one meet: the nearest concept of the witnesses.
type Result struct {
	Meet      bat.OID        // the lowest common ancestor found
	Path      pathsum.PathID // its path (the "type" of the nearest concept)
	Witnesses []bat.OID      // the consumed input OIDs, ascending
	Distance  int            // total number of parent joins spent by all witnesses
}

// Options carries the Section 4 extensions of the meet operator.
// The zero value means "plain meet".
type Options struct {
	// Exclude discards results whose meet lies on one of these paths —
	// the paper's meet_P restriction. Typically it holds the document
	// root path so that trivial matches are suppressed (Section 4 and
	// the DBLP case study). Inputs consumed by an excluded meet stay
	// consumed, matching the paper's definition of meet_P as a filter
	// over meet's result set. The map is shared and read-only: a
	// member's memoized plan hands the same map to every request of its
	// shape, concurrently, so nothing may write to it once it is set.
	Exclude map[pathsum.PathID]bool

	// SkipExcluded switches Exclude to "transparent" semantics (an
	// extension beyond the paper): an excluded node does not consume
	// its contributions, which continue to lift, so the query returns
	// the nearest *admissible* concept instead of dropping the match.
	SkipExcluded bool

	// MaxLift bounds the number of parent joins any single input may
	// take part in; contributions exceeding it are dropped. Zero means
	// unbounded. It implements the paper's d-bounded meet for sets:
	// with MaxLift = d, no reported meet is farther than d edges from
	// any of its witnesses.
	MaxLift int

	// MaxDistance filters results at emission: a result is kept only
	// if its two closest witnesses are within MaxDistance edges of each
	// other (the pairwise distance of the paper's ⊥-variant). Zero
	// means unbounded.
	MaxDistance int
}

func (o *Options) excluded(p pathsum.PathID) bool {
	return o != nil && o.Exclude != nil && o.Exclude[p]
}

func (o *Options) maxLift() int {
	if o == nil {
		return 0
	}
	return o.MaxLift
}

func (o *Options) maxDistance() int {
	if o == nil {
		return 0
	}
	return o.MaxDistance
}

func (o *Options) skipExcluded() bool { return o != nil && o.SkipExcluded }

// ExcludeRoot returns an Options that discards meets at the document
// root — the restriction used in the paper's DBLP case study.
func ExcludeRoot(s *monetx.Store) *Options {
	return &Options{Exclude: map[pathsum.PathID]bool{s.Summary().Root(): true}}
}

// Rank orders results by ascending distance (the paper's "number of
// joins" ranking heuristic), breaking ties by document order of the
// meet. It sorts in place and returns its argument.
func Rank(results []Result) []Result {
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Distance != results[j].Distance {
			return results[i].Distance < results[j].Distance
		}
		return results[i].Meet < results[j].Meet
	})
	return results
}

// SortByDocOrder orders results by the document order of their meets,
// in place, and returns its argument. This is the canonical order used
// by the tests.
func SortByDocOrder(results []Result) []Result {
	slices.SortStableFunc(results, func(a, b Result) int {
		return cmp.Compare(a.Meet, b.Meet)
	})
	return results
}

func checkOID(s *monetx.Store, o bat.OID) error {
	if !s.ValidOID(o) {
		return fmt.Errorf("core: OID %d not in store (have 1..%d)", o, s.Len())
	}
	return nil
}
