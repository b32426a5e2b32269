// Package core implements the meet operator, the primary contribution
// of the paper (Section 3): computing the "nearest concept" — the
// lowest common ancestor — of nodes in an XML syntax tree stored in
// Monet transform representation.
//
// Three algorithms are provided, mirroring the paper's Figures 3-5:
//
//   - Meet2 computes the meet of a pair of OIDs, steering the ascent by
//     the prefix order on their paths so that no superfluous parent
//     look-ups happen (Figure 3).
//   - MeetSets computes minimal meets of two homogeneous sets of OIDs
//     (all objects of one set share a path), lifting the deeper set
//     with bulk parent steps and intersecting when the paths coincide
//     (Figure 4). Matched inputs are consumed immediately, which keeps
//     the result size linear and input-order invariant.
//   - Meet computes meets of arbitrarily many input relations grouped
//     by path, rolling the tree-shaped path summary up from the leaves
//     (Figure 5). A node is a meet as soon as at least two live
//     contributions land on it.
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
	// over meet's result set.
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

// RankBySourceProximity orders results by how close together their
// witnesses appear in the source file, measured as the OID span of the
// witness set (OIDs are document order). Section 4 suggests "additional
// heuristics like distances in the source file" for ranking; tight
// spans usually indicate one coherent record, wide spans a coincidental
// co-occurrence. Ties break by join distance, then document order.
func RankBySourceProximity(results []Result) []Result {
	span := func(r Result) bat.OID {
		if len(r.Witnesses) == 0 {
			return 0
		}
		return r.Witnesses[len(r.Witnesses)-1] - r.Witnesses[0] // sorted
	}
	sort.SliceStable(results, func(i, j int) bool {
		si, sj := span(results[i]), span(results[j])
		if si != sj {
			return si < sj
		}
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

// contribution is one live input travelling up the tree: the original
// OID plus the number of parent joins it has taken so far.
type contribution struct {
	orig  bat.OID
	lifts int32
}

// emit assembles a Result from the contributions that collided on m.
// The same original OID may arrive from both input sets of MeetSets
// (a full-text search where two terms hit one association); it is
// reported as a single witness.
func emit(s *monetx.Store, m bat.OID, contribs []contribution) Result {
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
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return Result{Meet: m, Path: s.PathOf(m), Witnesses: ws, Distance: total}
}

// minPairDistance returns the distance between the two closest
// witnesses: the sum of the two smallest lift counts.
func minPairDistance(contribs []contribution) int {
	return minPair(contribs, func(c contribution) int32 { return c.lifts })
}
