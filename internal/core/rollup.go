package core

// The columnar execution engine of the general meet (Figure 5). The
// paper's pitch is that nearest concept queries run directly on the
// path-partitioned binary relations — a layout chosen for speed — so
// the roll-up keeps contributions in flat, path-bucketed slices
// indexed by the dense PathID space of the path summary instead of
// nested maps. Each contracted level orders its bucket by (current
// ancestor, input) and sweeps collision runs in OID order; the buckets
// are recycled across queries through a sync.Pool, so a steady-state
// query allocates O(results), not O(inputs · levels).
//
// Ordering a bucket is a natural merge sort (sortRuns), because the
// bucket arrives nearly ordered. OIDs are preorder, so on one path the
// parent is monotone in the child: entries ordered by cur stay ordered
// once lifted, and within one cur they stay ordered by orig (the
// inputs under distinct same-path nodes lie in disjoint, ordered
// subtrees). A bucket is therefore the concatenation of at most
// 1 + children(p) ascending runs — the path's own inputs, then one run
// per child path lifted into it — and on real traffic four buckets in
// five are a single run, which costs one comparison per entry to
// confirm. Correctness does not lean on any of that: the merge runs
// under the same (cur, orig) comparator a comparison sort would use
// and orders any bucket — whatever the parent array of a hand-built
// snapshot implies.

import (
	"context"
	"sync"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
)

// entry is one live contribution in the scratch buffers: the input OID
// it stands for, the ancestor it has reached, and the parent joins
// spent getting there.
type entry struct {
	cur   bat.OID
	orig  bat.OID
	lifts int32
}

// cmpEntry is the order every bucket is swept in: by the ancestor
// reached, then by the input it stands for.
func cmpEntry(a, b entry) int {
	switch {
	case a.cur != b.cur:
		if a.cur < b.cur {
			return -1
		}
		return 1
	case a.orig != b.orig:
		if a.orig < b.orig {
			return -1
		}
		return 1
	}
	return 0
}

// scratch holds the reusable buffers of one roll-up: a contribution
// bucket per path (indexed by dense PathID), the unmatched
// accumulator (entries with cur == orig, so that sortRuns orders it
// like any bucket), the run boundaries and merge buffer of sortRuns,
// and the cursors of MeetMultiContext's set merge.
// Buffers keep their capacity between queries; used is the prefix of
// perPath that the current store's summary spans (pooled scratch may
// be shared by stores with different path counts).
type scratch struct {
	perPath   [][]entry
	unmatched []entry
	bounds    []int
	merge     []entry
	cursors   []setCursor
	used      int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(nPaths int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.perPath) < nPaths {
		sc.perPath = append(sc.perPath, make([][]entry, nPaths-len(sc.perPath))...)
	}
	sc.used = nPaths
	return sc
}

func putScratch(sc *scratch) {
	for i := 0; i < sc.used; i++ {
		sc.perPath[i] = sc.perPath[i][:0]
	}
	sc.unmatched = sc.unmatched[:0]
	clear(sc.cursors) // the cursors hold the caller's input sets
	sc.cursors = sc.cursors[:0]
	scratchPool.Put(sc)
}

// drop retires a contribution that can no longer find a partner.
func (sc *scratch) drop(e entry) {
	sc.unmatched = append(sc.unmatched, entry{cur: e.orig, orig: e.orig})
}

// add places one input contribution in its path's bucket. The caller
// must have validated that o lies on path p.
func (sc *scratch) add(p pathsum.PathID, o bat.OID) {
	sc.perPath[p] = append(sc.perPath[p], entry{cur: o, orig: o, lifts: 0})
}

// inputs returns the distinct input OIDs currently in the scratch,
// ascending — the degenerate answer when fewer than two objects exist.
func (sc *scratch) inputs() []bat.OID {
	out := make([]bat.OID, 0, 1)
	for i := 0; i < sc.used; i++ {
		for _, e := range sc.perPath[i] {
			out = append(out, e.orig)
		}
	}
	return bat.SortDedup(out)
}

// sortRuns orders es by cmpEntry with a natural merge sort: one scan
// finds the descents that separate the ascending runs es already
// consists of, then adjacent runs are merged pairwise until one is
// left. An ordered bucket costs len(es)-1 comparisons and no copy; r
// runs cost O(len(es) · log r). Equal entries keep their order.
func (sc *scratch) sortRuns(es []entry) {
	// bounds[i] is where run i+1 starts; run 0 starts at 0.
	bounds := sc.bounds[:0]
	for i := 1; i < len(es); i++ {
		if cmpEntry(es[i], es[i-1]) < 0 {
			bounds = append(bounds, i)
		}
	}
	for len(bounds) > 0 {
		// One pass: merge runs (0,1), (2,3), ... and keep the boundary
		// after each merged pair.
		lo, w := 0, 0
		for i := 0; i < len(bounds); i += 2 {
			mid, hi := bounds[i], len(es)
			if i+1 < len(bounds) {
				hi = bounds[i+1]
				bounds[w] = hi
				w++
			}
			sc.mergeRuns(es[lo:hi], mid-lo)
			lo = hi
		}
		bounds = bounds[:w]
	}
	sc.bounds = bounds
}

// mergeRuns merges the ascending runs es[:mid] and es[mid:] in place:
// the left run moves to the pooled buffer and the two are merged back
// from the front, which can never overtake the unread part of the
// right run.
func (sc *scratch) mergeRuns(es []entry, mid int) {
	left := append(sc.merge[:0], es[:mid]...)
	sc.merge = left
	i, j, w := 0, mid, 0
	for i < len(left) && j < len(es) {
		if cmpEntry(es[j], left[i]) < 0 {
			es[w] = es[j]
			j++
		} else {
			es[w] = left[i]
			i++
		}
		w++
	}
	copy(es[w:], left[i:])
}

// rollup contracts the path summary deepest-first over the scratch
// buffers — the procedure meet of Figure 5 in columnar form. Inputs
// must already have been validated and placed with add; duplicate
// input OIDs collapse during the per-level sweep (a duplicate shares
// its run's cur and orig, so it can never fabricate a collision).
// ctx is checked once per contracted level so a deadline can
// interrupt one huge roll-up mid-meet. selfMeets — MeetMultiContext's
// distance-zero answers — join the results before the one sort into
// document order, after a rolled-up meet on the same node.
func rollup(ctx context.Context, s *monetx.Store, sc *scratch, opt *Options, selfMeets []Result) ([]Result, []bat.OID, error) {
	sum := s.Summary()
	maxLift := int32(opt.maxLift())
	var results []Result
	for _, p := range sum.DeepestFirst() {
		entries := sc.perPath[p]
		if len(entries) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		parentPath := sum.Parent(p)
		sc.sortRuns(entries)
		for i := 0; i < len(entries); {
			j := i + 1
			for j < len(entries) && entries[j].cur == entries[i].cur {
				j++
			}
			run := dedupRun(entries[i:j])
			i = j
			// A collision of two or more live contributions makes cur
			// a meet (it is the LCA of all of them, since
			// contributions from a common deeper branch would have
			// collided earlier).
			if len(run) >= 2 {
				excluded := opt.excluded(p)
				switch {
				case excluded && opt.skipExcluded():
					// Extension: keep lifting past inadmissible paths.
				case excluded:
					continue // meet_P: consumed, not reported
				default:
					if d := opt.maxDistance(); d > 0 && minPairLifts(run) > d {
						continue // consumed, beyond the pairwise bound
					}
					results = append(results, emitRun(s, run))
					continue
				}
			}
			// Lift the survivors one level.
			if parentPath == pathsum.Invalid {
				for _, e := range run {
					sc.drop(e)
				}
				continue
			}
			parent := s.Parent(run[0].cur)
			for _, e := range run {
				if maxLift > 0 && e.lifts+1 > maxLift {
					sc.drop(e)
					continue
				}
				sc.perPath[parentPath] = append(sc.perPath[parentPath],
					entry{cur: parent, orig: e.orig, lifts: e.lifts + 1})
			}
		}
		sc.perPath[p] = entries[:0]
	}
	// An input travels as exactly one contribution (dedupRun strips
	// literal duplicates at lift 0), so the unmatched inputs are
	// distinct; they were dropped level by level, each level ascending.
	sc.sortRuns(sc.unmatched)
	unmatched := make([]bat.OID, len(sc.unmatched))
	for i, e := range sc.unmatched {
		unmatched[i] = e.orig
	}
	return SortByDocOrder(append(results, selfMeets...)), unmatched, nil
}

// dedupRun collapses entries with equal orig inside one sorted
// collision run. Distinct contributions always carry distinct origs —
// an input travels as exactly one contribution — so this only strips
// literal input duplicates, which all sit at lift 0.
func dedupRun(run []entry) []entry {
	w := 1
	for i := 1; i < len(run); i++ {
		if run[i].orig != run[w-1].orig {
			run[w] = run[i]
			w++
		}
	}
	return run[:w]
}

// emitRun assembles a Result from a collision run. The run is sorted
// by orig, so the witness list is ascending without a further sort.
func emitRun(s *monetx.Store, run []entry) Result {
	ws := make([]bat.OID, len(run))
	total := 0
	for i, e := range run {
		ws[i] = e.orig
		total += int(e.lifts)
	}
	return Result{Meet: run[0].cur, Path: s.PathOf(run[0].cur), Witnesses: ws, Distance: total}
}

// minPairLifts returns the distance between the two closest witnesses
// of a run: the sum of the two smallest lift counts.
func minPairLifts(run []entry) int {
	if len(run) < 2 {
		return 0
	}
	min1, min2 := int32(1<<30), int32(1<<30)
	for _, e := range run {
		switch l := e.lifts; {
		case l < min1:
			min1, min2 = l, min1
		case l < min2:
			min2 = l
		}
	}
	return int(min1 + min2)
}
