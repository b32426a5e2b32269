package core

import (
	"cmp"
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

// openSets leaves one cursor per non-empty input set in sc.cursors.
// A set that is not ascending — term sets from the full-text index
// always are — is merged from a sorted copy, so the merge has one input
// form whoever calls, and an ascending set holds only valid OIDs
// exactly when its first and its last one are.
func (sc *scratch) openSets(s *monetx.Store, inputSets [][]bat.OID) error {
	for si, set := range inputSets {
		if len(set) == 0 {
			continue
		}
		if !slices.IsSorted(set) {
			set = slices.Clone(set)
			slices.Sort(set)
		}
		if err := cmp.Or(checkOID(s, set[0]), checkOID(s, set[len(set)-1])); err != nil {
			return err
		}
		sc.cursors = append(sc.cursors, setCursor{set: int32(si), rest: set})
	}
	return nil
}

// MeetInto computes the meets of several input sets — one per search
// term, as delivered by a multi-term full-text query — into out, which
// it resets first: the meets as rows, and the unmatched inputs,
// ascending. It is the one way into the roll-up, and it reconciles the
// two faces of the paper's semantics:
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
// every 4,096 distinct input OIDs, self-meets included, so a deadline
// interrupts even one huge meet mid-flight.
//
// out's rows are in document order — a rolled-up meet before the
// self-meet on the same node. Into a warm out, nothing is allocated.
// After an error out holds no answer to read.
func MeetInto(ctx context.Context, s *monetx.Store, inputSets [][]bat.OID, opt *Options, out *Answers) error {
	out.Rows, out.Wits, out.Unmatched = out.Rows[:0], out.Wits[:0], out.Unmatched[:0]
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.openSets(s, inputSets); err != nil {
		return fmt.Errorf("core: MeetMulti: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Columnar set counting: the ascending sets are merged straight
	// into the roll-up, so every distinct OID is taken once with the
	// number of distinct sets that hold it — duplicates within one set
	// collapse — and that count decides between self-meet and roll-up.
	// No pair is materialised and nothing is sorted: the roll-up takes
	// its inputs in exactly this order. More than two sets merge through
	// the cursor heap until two are left; two, or one, merge with two
	// pointers.
	r := roll{s: s, opt: opt, sc: sc, maxLift: int32(opt.maxLift()), out: out}
	h, err := r.mergeHeap(ctx, sc.cursors, 2)
	if err != nil {
		return err
	}
	var a, b []bat.OID
	if len(h) > 0 {
		a = h[0].rest
	}
	if len(h) > 1 {
		b = h[1].rest
	}
	if err := r.merge2(ctx, a, b); err != nil {
		return err
	}
	r.finish()
	return nil
}

// mergeHeap merges the sets through a heap of cursors in (OID, set)
// order until at most left of them have OIDs left, and returns their
// cursors.
func (r *roll) mergeHeap(ctx context.Context, h []setCursor, left int) ([]setCursor, error) {
	if len(h) <= left {
		return h, nil
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftCursor(h, i)
	}
	for len(h) > left {
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
		if err := r.take(ctx, o, k); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// merge2 merges two ascending sets with two pointers; an OID at both
// fronts is taken once, held by two sets, and a repeat of the OID just
// taken is skipped.
func (r *roll) merge2(ctx context.Context, a, b []bat.OID) error {
	last := bat.Nil
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var o bat.OID
		k := 1
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			o, i = a[i], i+1
		case i == len(a) || b[j] < a[i]:
			o, j = b[j], j+1
		default:
			o, i, j, k = a[i], i+1, j+1, 2
		}
		if o == last {
			continue
		}
		last = o
		if err := r.take(ctx, o, k); err != nil {
			return err
		}
	}
	return nil
}

// MaxPooledRows bounds the answers a pool keeps: a buffer whose rows,
// witness arena or unmatched column outgrew it is left to the
// collector, so one huge answer does not pin its columns for every
// later small one.
const MaxPooledRows = 1 << 16

// Poolable reports whether none of a's columns outgrew MaxPooledRows.
func (a *Answers) Poolable() bool {
	return max(cap(a.Rows), cap(a.Wits), cap(a.Unmatched)) <= MaxPooledRows
}

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
	if err := MeetInto(ctx, s, inputSets, opt, a); err != nil {
		return nil, nil, err
	}
	unmatched := append(make([]bat.OID, 0, len(a.Unmatched)), a.Unmatched...)
	if len(a.Rows) == 0 {
		return nil, unmatched, nil
	}
	results := make([]Result, len(a.Rows))
	wits := slices.Clone(a.Wits)
	for i, row := range a.Rows {
		results[i] = Result{Meet: row.Meet, Path: row.Path, Witnesses: wits[row.Lo:row.Hi:row.Hi], Distance: int(row.Distance)}
	}
	return results, unmatched, nil
}
