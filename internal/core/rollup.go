package core

// The columnar execution engine of the general meet (Figure 5). The
// paper contracts the path summary level by level, deepest first; the
// store this reproduction keeps also holds every node's preorder
// interval (o .. End(o)) and depth, which make ancestry an O(1) test,
// so the roll-up is one stack pass over the inputs instead.
//
// MeetMultiContext's set merge hands the inputs over ascending and
// distinct, i.e. in preorder. In that order the nodes still holding
// unsettled contributions always form one root-to-leaf chain of
// frames. When the next input v lies outside a frame's interval, no
// later input can reach that node either, so the frame is popped and
// settled exactly as the level sweep decided the node: two or more
// live contributions make it a meet — or, on an excluded path, consume
// them, or under SkipExcluded let them climb on. The survivors lift to
// where they can next collide: the frame below, or — when that frame
// holds v, or there is none — the first ancestor whose interval holds
// v, which becomes a frame of its own. Then v is pushed.
//
// Each frame's contributions are a slice of one pooled []entry,
// ascending by input, and the frame below's slice ends where the top
// frame's starts: witnesses come out ascending, and a lift into the
// frame below keeps the survivors where they are. A single survivor —
// the normal case — lifts in O(1) by depth difference; two or more
// (only under SkipExcluded) step one parent at a time, deciding again
// at each node. The pass costs O(inputs + ancestors walked), each
// ancestor walked at most once. It trusts the intervals and depths it
// reads: the loader derives them, and restoring a snapshot checks them
// (monetx.ReadSnapshot).
//
// The answer is written into columns the caller owns (Answers): one
// 20-byte Row per meet, and one witness arena for the whole answer that
// each row spans. A decided meet appends its row and its witnesses;
// the self-meets wait in the scratch and follow the rolled-up rows, and
// one stable sort of the rows by node puts the answer in document
// order. The unmatched inputs are sorted too, as MaxLift drops them out
// of order. Nothing else is sorted, and a warm Answers allocates
// nothing.

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
)

// entry is one live contribution: the input OID it stands for and the
// parent joins spent lifting it so far.
type entry struct {
	orig  bat.OID
	lifts int32
}

// frame is one node of the chain: its OID, interval end and depth, and
// where its contributions start in scratch.entries (they run up to the
// next frame's offset, the top frame's to the end).
type frame struct {
	node  bat.OID
	end   bat.OID
	depth int32
	off   int32
}

// Row is one meet of an Answers: the Result without its witness
// slice, which is the span Wits[Lo:Hi] of the answer's witness arena.
// 20 bytes, so the rows of a big answer move and sort as a flat column.
type Row struct {
	Meet     bat.OID
	Path     pathsum.PathID
	Distance int32
	Lo, Hi   uint32
}

// Answers holds one roll-up's answer as columns: its rows in document
// order, and the witnesses they span, each row's ascending. MeetInto
// resets and refills it, so a caller that keeps one reuses its
// capacity from query to query.
type Answers struct {
	Rows []Row
	Wits []bat.OID
}

// Witnesses returns row i's witnesses, capped so an append cannot spill
// into the next row's. The slice aliases the arena.
func (a *Answers) Witnesses(i int) []bat.OID {
	r := &a.Rows[i]
	return a.Wits[r.Lo:r.Hi:r.Hi]
}

// scratch holds the reusable buffers of one roll-up: the chain, the
// contributions it holds, the unmatched inputs, the self-meets waiting
// for the rolled-up rows, and the cursors of the set merge. They keep
// their capacity between queries, whatever store the next one runs on.
type scratch struct {
	frames    []frame
	entries   []entry
	unmatched []bat.OID
	selfs     []Row
	cursors   []setCursor
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	sc.frames = sc.frames[:0]
	sc.entries = sc.entries[:0]
	sc.unmatched = sc.unmatched[:0]
	sc.selfs = sc.selfs[:0]
	clear(sc.cursors) // the cursors hold the caller's input sets
	sc.cursors = sc.cursors[:0]
	scratchPool.Put(sc)
}

// pollEvery is how many inputs the pass takes between looks at the
// context, so a deadline interrupts one huge roll-up mid-pass.
const pollEvery = 4096

// past is an OID after every node's interval: settling up to it
// settles the whole chain.
const past = ^bat.OID(0)

// roll is one roll-up in progress.
type roll struct {
	s       *monetx.Store
	opt     *Options
	sc      *scratch
	maxLift int32
	inputs  int
	out     *Answers
}

// add takes the next input, which must follow every earlier one in
// document order: it settles the frames v lies outside of and pushes
// v's own. The context is polled every pollEvery inputs.
func (r *roll) add(ctx context.Context, v bat.OID) error {
	if r.inputs++; r.inputs%pollEvery == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	r.settleUpTo(v)
	sc := r.sc
	sc.frames = append(sc.frames, r.frameAt(v, len(sc.entries)))
	sc.entries = append(sc.entries, entry{orig: v})
	return nil
}

// finish settles the whole chain, appends the self-meets — the set
// merge's distance-zero answers, each its own witness — and sorts the
// rows into document order, a rolled-up meet before the self-meet on
// the same node. It returns a copy of the unmatched inputs, ascending.
func (r *roll) finish() []bat.OID {
	r.settleUpTo(past)
	a := r.out
	for _, row := range r.sc.selfs {
		row.Lo, row.Hi = uint32(len(a.Wits)), uint32(len(a.Wits)+1)
		a.Wits = append(a.Wits, row.Meet)
		a.Rows = append(a.Rows, row)
	}
	slices.SortStableFunc(a.Rows, func(x, y Row) int { return cmp.Compare(x.Meet, y.Meet) })
	slices.Sort(r.sc.unmatched)
	return append(make([]bat.OID, 0, len(r.sc.unmatched)), r.sc.unmatched...)
}

func (r *roll) frameAt(o bat.OID, off int) frame {
	return frame{node: o, end: r.s.End(o), depth: int32(r.s.Depth(o)), off: int32(off)}
}

// settleUpTo pops and settles, innermost first, every frame whose
// interval v lies outside of. Every frame's node precedes v, so that
// is every frame ending before v.
func (r *roll) settleUpTo(v bat.OID) {
	sc := r.sc
	for n := len(sc.frames); n > 0 && sc.frames[n-1].end < v; n = len(sc.frames) {
		f := sc.frames[n-1]
		sc.frames = sc.frames[:n-1]
		if len(sc.entries)-int(f.off) >= 2 && !r.decide(f.node, int(f.off)) {
			continue
		}
		r.lift(f.node, f.depth, int(f.off), v)
	}
}

// decide is the decision at a node two or more live contributions
// (sc.entries[off:]) reached. It reports whether they lift on — an
// excluded node under SkipExcluded; otherwise the node consumes them,
// as a meet unless its path is excluded (meet_P) or its two closest
// witnesses are beyond MaxDistance.
func (r *roll) decide(node bat.OID, off int) bool {
	es := r.sc.entries[off:]
	switch p := r.s.PathOf(node); {
	case r.opt.excluded(p) && r.opt.skipExcluded():
		return true
	case r.opt.excluded(p):
		// meet_P: consumed, not reported
	case r.opt.maxDistance() > 0 && minPairLifts(es) > r.opt.maxDistance():
		// consumed, beyond the pairwise bound
	default:
		r.emit(node, p, es)
	}
	r.sc.entries = r.sc.entries[:off]
	return false
}

// lift moves the survivors sc.entries[off:] up from node, of the given
// depth, to where they can next collide: the frame below, which they
// join, or — when that frame's interval holds v, or there is none —
// the first ancestor whose interval holds v, pushed as a new frame.
// Past the root, or past MaxLift, a contribution is unmatched.
func (r *roll) lift(node bat.OID, depth int32, off int, v bat.OID) {
	sc := r.sc
	var below *frame
	if n := len(sc.frames); n > 0 {
		below = &sc.frames[n-1]
	}
	// Two or more survivors climb one parent at a time, deciding again
	// at every node on the way; none of those nodes holds anything else.
	for len(sc.entries)-off >= 2 {
		if node = r.s.Parent(node); node == bat.Nil {
			r.drop(off)
			return
		}
		depth--
		r.climb(off)
		switch {
		case len(sc.entries) == off, below != nil && node == below.node:
			return
		case v <= r.s.End(node):
			sc.frames = append(sc.frames, r.frameAt(node, off))
			return
		case len(sc.entries)-off >= 2 && !r.decide(node, off):
			return
		}
	}
	// One survivor: nothing on its way up can meet it, so it lifts by
	// depth difference.
	target, tdepth := bat.Nil, int32(0)
	if below != nil && below.end < v {
		target, tdepth = below.node, below.depth
	} else {
		for target = r.s.Parent(node); target != bat.Nil && r.s.End(target) < v; target = r.s.Parent(target) {
		}
		if target == bat.Nil {
			r.drop(off)
			return
		}
		tdepth = int32(r.s.Depth(target))
	}
	e := &sc.entries[off]
	if e.lifts += depth - tdepth; r.maxLift > 0 && e.lifts > r.maxLift {
		r.drop(off)
		return
	}
	if below == nil || target != below.node {
		sc.frames = append(sc.frames, frame{node: target, end: r.s.End(target), depth: tdepth, off: int32(off)})
	}
}

// climb charges every survivor from off one more parent join and
// retires those that exceed MaxLift.
func (r *roll) climb(off int) {
	sc := r.sc
	w := off
	for _, e := range sc.entries[off:] {
		if e.lifts++; r.maxLift > 0 && e.lifts > r.maxLift {
			sc.unmatched = append(sc.unmatched, e.orig)
			continue
		}
		sc.entries[w] = e
		w++
	}
	sc.entries = sc.entries[:w]
}

// drop retires the contributions sc.entries[off:] as unmatched.
func (r *roll) drop(off int) {
	sc := r.sc
	for _, e := range sc.entries[off:] {
		sc.unmatched = append(sc.unmatched, e.orig)
	}
	sc.entries = sc.entries[:off]
}

// emit appends the meet at node as a row, its witnesses — the
// contributions, ascending by input, so they need no sort — to the
// arena, and its distance as the sum of their lifts.
func (r *roll) emit(node bat.OID, p pathsum.PathID, es []entry) {
	a := r.out
	lo := len(a.Wits)
	var total int32
	for _, e := range es {
		a.Wits = append(a.Wits, e.orig)
		total += e.lifts
	}
	a.Rows = append(a.Rows, Row{Meet: node, Path: p, Distance: total, Lo: uint32(lo), Hi: uint32(len(a.Wits))})
}

// minPairLifts returns the distance between the two closest witnesses
// of a meet: the sum of the two smallest lift counts.
func minPairLifts(es []entry) int {
	if len(es) < 2 {
		return 0
	}
	min1, min2 := int32(1<<30), int32(1<<30)
	for _, e := range es {
		switch l := e.lifts; {
		case l < min1:
			min1, min2 = l, min1
		case l < min2:
			min2 = l
		}
	}
	return int(min1 + min2)
}
