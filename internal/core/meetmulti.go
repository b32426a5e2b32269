package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"ncq/internal/bat"
	"ncq/internal/monetx"
)

// setCursor is one input set's position in the set merge: the set's
// index and what is left of it, ascending.
type setCursor struct {
	set  int32
	rest []bat.OID
}

// lessCursor orders the cursor heap by (next OID, set index).
func lessCursor(a, b setCursor) bool {
	if a.rest[0] != b.rest[0] {
		return a.rest[0] < b.rest[0]
	}
	return a.set < b.set
}

// siftCursor restores the min-heap property of h below index i.
func siftCursor(h []setCursor, i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && lessCursor(h[r], h[child]) {
			child = r
		}
		if !lessCursor(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// openSets validates every OID of every input set and leaves one
// cursor per non-empty set in sc.cursors, heap-ordered. The same pass
// observes whether each set is ascending — term sets from the
// full-text index always are — and a set that is not is merged from a
// sorted copy, so the merge has one input form whoever calls.
func (sc *scratch) openSets(s *monetx.Store, inputSets [][]bat.OID) error {
	for si, set := range inputSets {
		ascending := true
		for i, o := range set {
			if err := checkOID(s, o); err != nil {
				return err
			}
			if i > 0 && o < set[i-1] {
				ascending = false
			}
		}
		if len(set) == 0 {
			continue
		}
		if !ascending {
			set = slices.Clone(set)
			slices.Sort(set)
		}
		sc.cursors = append(sc.cursors, setCursor{set: int32(si), rest: set})
	}
	for i := len(sc.cursors)/2 - 1; i >= 0; i-- {
		siftCursor(sc.cursors, i)
	}
	return nil
}

// MeetInto computes the meets of several input sets — one per search
// term, as delivered by a multi-term full-text query — into out, which
// it resets first, and returns the unmatched inputs, ascending, as a
// copy of their own. It is the one way into the roll-up, and it
// reconciles the two faces of the paper's semantics:
//
//   - An object occurring in at least two input sets is its own meet at
//     distance zero. This is the Section 3.1 example where full-text
//     searches for "Bob" and "Byte" both return the association
//     ⟨o15,"Bob Byte"⟩ and meet_S reports the cdata node o15 itself
//     (D := O1 ∩ O2 before any lifting).
//   - All remaining objects are handed to the general roll-up of
//     Figure 5, in document order. A single set is that roll-up over a
//     flat list of objects, whatever their paths.
//
// Exclusion applies to the degenerate self-meets as well: an excluded
// self-meet consumes its object silently, unless SkipExcluded is set,
// in which case the object continues into the roll-up as an ordinary
// single contribution. ctx is checked before the roll-up and then
// every 4,096 inputs, so a deadline interrupts even one huge meet
// mid-flight.
//
// out's rows are in document order — a rolled-up meet before the
// self-meet on the same node. Into a warm out, nothing but the
// unmatched copy is allocated. After an error out holds no answer to
// read.
func MeetInto(ctx context.Context, s *monetx.Store, inputSets [][]bat.OID, opt *Options, out *Answers) ([]bat.OID, error) {
	out.Rows, out.Wits = out.Rows[:0], out.Wits[:0]
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.openSets(s, inputSets); err != nil {
		return nil, fmt.Errorf("core: MeetMulti: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Columnar set counting by k-way merge: the ascending sets are
	// merged in (OID, set) order straight into the roll-up, so every
	// distinct OID is seen once with the number of distinct sets that
	// hold it — duplicates within one set collapse — and that count
	// decides between self-meet and roll-up. No pair is materialised
	// and nothing is sorted: the roll-up takes its inputs in exactly
	// this order.
	r := roll{s: s, opt: opt, sc: sc, maxLift: int32(opt.maxLift()), out: out}
	for h := sc.cursors; len(h) > 0; {
		if len(h) == 1 {
			// A lone set's OIDs can be in no other set: they go straight
			// into the roll-up, duplicates collapsed as above.
			for i, o := range h[0].rest {
				if i == 0 || o != h[0].rest[i-1] {
					if err := r.add(ctx, o); err != nil {
						return nil, err
					}
				}
			}
			break
		}
		o := h[0].rest[0]
		k, last := 0, int32(-1)
		for len(h) > 0 && h[0].rest[0] == o {
			if h[0].set != last {
				last = h[0].set
				k++
			}
			if h[0].rest = h[0].rest[1:]; len(h[0].rest) == 0 {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftCursor(h, 0)
		}
		if k >= 2 {
			switch p := s.PathOf(o); {
			case opt.excluded(p) && opt.skipExcluded():
				// Keep climbing as a single contribution.
			case opt.excluded(p):
				continue // consumed, not reported
			default:
				sc.selfs = append(sc.selfs, Row{Meet: o, Path: p})
				continue
			}
		}
		if err := r.add(ctx, o); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// MaxPooledRows bounds the answers a pool keeps: a buffer whose rows or
// witness arena outgrew it is left to the collector, so one huge answer
// does not pin its columns for every later small one.
const MaxPooledRows = 1 << 16

// Poolable reports whether neither of a's columns outgrew MaxPooledRows.
func (a *Answers) Poolable() bool { return max(cap(a.Rows), cap(a.Wits)) <= MaxPooledRows }

var answersPool = sync.Pool{New: func() any { return new(Answers) }}

// MeetMultiContext is MeetInto copied out: the meets as one exact
// []Result in document order, whose witness lists share one block,
// each capped, and the unmatched inputs ascending. Callers that render
// only some meets, or keep none, use MeetInto.
func MeetMultiContext(ctx context.Context, s *monetx.Store, inputSets [][]bat.OID, opt *Options) ([]Result, []bat.OID, error) {
	a := answersPool.Get().(*Answers)
	defer func() {
		if a.Poolable() {
			answersPool.Put(a)
		}
	}()
	unmatched, err := MeetInto(ctx, s, inputSets, opt, a)
	if err != nil || len(a.Rows) == 0 {
		return nil, unmatched, err
	}
	results := make([]Result, len(a.Rows))
	wits := slices.Clone(a.Wits)
	for i, row := range a.Rows {
		results[i] = Result{Meet: row.Meet, Path: row.Path, Witnesses: wits[row.Lo:row.Hi:row.Hi], Distance: int(row.Distance)}
	}
	return results, unmatched, nil
}
