package core

import (
	"context"
	"fmt"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
)

// Meet computes the meets of an arbitrary collection of input objects
// grouped by path — the procedure meet of the paper's Figure 5, the
// form used to post-process full-text results. groups maps each path to
// the input OIDs at that path (as produced by fulltext.Index.Groups);
// every OID must actually lie on its group's path.
//
// The algorithm "rolls up the tree-shaped schema from the bottom by
// iteratively contracting the offspring of nodes whose only offspring
// are leaves": the path summary is processed deepest-first, so when a
// path is contracted all contributions from below have arrived. A node
// on which at least two live contributions collide is a meet — the
// lowest common ancestor of at least two input objects (the paper's
// extended definition). Its contributions are consumed, so meets are
// minimal by construction and the result is independent of input
// order. Surviving single contributions keep lifting; those that reach
// past the root unmatched are returned separately.
//
// Results are in document order of the meets; unmatched inputs are in
// ascending OID order.
func Meet(s *monetx.Store, groups map[pathsum.PathID][]bat.OID, opt *Options) (results []Result, unmatched []bat.OID, err error) {
	return MeetContext(context.Background(), s, groups, opt) //lint:ncqvet-ignore ctx-less legacy entry point; ctx-aware callers use MeetContext
}

// MeetContext is Meet with cancellation: ctx is checked once per
// contracted level of the roll-up, so a deadline interrupts even one
// huge meet mid-flight.
func MeetContext(ctx context.Context, s *monetx.Store, groups map[pathsum.PathID][]bat.OID, opt *Options) (results []Result, unmatched []bat.OID, err error) {
	sum := s.Summary()
	total := 0
	for p, oids := range groups {
		if int(p) < 0 || int(p) >= sum.Len() {
			return nil, nil, fmt.Errorf("core: Meet: unknown group path %d", p)
		}
		for _, o := range oids {
			if err := checkOID(s, o); err != nil {
				return nil, nil, fmt.Errorf("core: Meet: %w", err)
			}
			if s.PathOf(o) != p {
				return nil, nil, fmt.Errorf("core: Meet: OID %d has path %s, grouped under %s",
					o, s.PathString(o), sum.String(p))
			}
		}
		total += len(oids)
	}
	sc := getScratch(sum.Len())
	defer putScratch(sc)
	for p, oids := range groups {
		for _, o := range oids {
			sc.add(p, o)
		}
	}
	if total < 2 {
		// A single object (or none) can never meet anything.
		return nil, sc.inputs(), nil
	}
	return rollup(ctx, s, sc, opt, nil)
}

// MeetOIDs is a convenience wrapper around Meet for callers holding a
// flat list of OIDs: it buckets them by path first.
func MeetOIDs(s *monetx.Store, oids []bat.OID, opt *Options) ([]Result, []bat.OID, error) {
	return MeetOIDsContext(context.Background(), s, oids, opt) //lint:ncqvet-ignore ctx-less legacy entry point; ctx-aware callers use MeetOIDsContext
}

// MeetOIDsContext is MeetOIDs with cancellation, checked once per
// contracted level of the roll-up.
func MeetOIDsContext(ctx context.Context, s *monetx.Store, oids []bat.OID, opt *Options) ([]Result, []bat.OID, error) {
	for _, o := range oids {
		if err := checkOID(s, o); err != nil {
			return nil, nil, fmt.Errorf("core: MeetOIDs: %w", err)
		}
	}
	sc := getScratch(s.Summary().Len())
	defer putScratch(sc)
	for _, o := range oids {
		sc.add(s.PathOf(o), o)
	}
	if len(oids) < 2 {
		return nil, sc.inputs(), nil
	}
	return rollup(ctx, s, sc, opt, nil)
}
