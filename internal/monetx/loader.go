package monetx

import (
	"fmt"
	"sync/atomic"

	"ncq/internal/bat"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// Loader is the one writer of a store's columns. It is an xmltree.Sink:
// each event carries, together with the loader's stack of open
// elements, everything the Monet transform records about a node — the
// OID is the count of nodes started, the parent and its path are the
// top frame, the depth is the stack's height, the rank is the parent
// frame's child count, and the subtree ends at the count reached when
// the element closes — so a parse shreds without a tree. When the root
// closes the columns move from scratch to the sealed store handed to
// emit; a split parse then starts the next part with the next Start.
//
// A loader made by NewIndexingLoader also hands each part's string
// associations to an Indexer as it records them, every indexChunk of
// them in load order, so an index can be built beside the parse. The
// chunks alias the loader's scratch, which is why both exits of a part
// — its root closing, Abort after a refused parse or replay — wait for
// the part's indexer before the scratch is cleared or kept.
type Loader struct {
	emit  func(*Store) error
	index func() Indexer   // makes each part's indexer; nil: none
	ix    Indexer          // the part under construction's indexer
	fed   int              // its associations handed to ix
	sum   *pathsum.Summary // the paths of the part under construction
	sc    *scratch         // its columns; nil between parts
	open  []frame
}

// An Indexer consumes the string associations of one part while the
// part loads. Feed and Close hand it chunks in load order; a chunk
// aliases the loader's scratch and stays valid until Wait returns.
type Indexer interface {
	// Feed hands over the next full chunk.
	Feed(chunk Chunk)
	// Close hands over every association of the part, those fed
	// before included: the part is complete and its indexer may finish
	// on its own.
	Close(all Chunk)
	// Wait returns once no chunk is read any more. With abort set the
	// part is abandoned: the indexer stops early and keeps nothing.
	Wait(abort bool)
}

// Chunk is a run of string associations in load order.
type Chunk []assoc

// At returns the i-th association: owner carries value at path.
func (c Chunk) At(i int) (owner bat.OID, path pathsum.PathID, value string) {
	return c[i].owner, c[i].path, c[i].value
}

// indexChunk is how many associations a Feed hands over: a few thousand
// keep the hand-offs rare and leave the indexer little to catch up on
// once the root closes.
const indexChunk = 2048

// frame is one open element.
type frame struct {
	oid  bat.OID
	path pathsum.PathID
	kids int32 // children started so far
}

// scratch is where a load writes the per-OID arrays (entry 0 unused)
// and every string association, in load order. kept retains one set
// between loads; a load that fails never gives its set back.
type scratch struct {
	parent []bat.OID
	pathOf []pathsum.PathID
	depth  []int32
	rank   []int32
	end    []bat.OID
	strs   []assoc
}

// assoc is one string association: value, owned by owner, at path.
type assoc struct {
	path  pathsum.PathID
	owner bat.OID
	value string
}

// MaxKeptRows bounds the scratch a package keeps between loads: a set
// grown past it, in nodes, strings or values, is dropped.
const MaxKeptRows = 1 << 17

var kept atomic.Pointer[scratch]

// takeScratch takes the kept set, or a fresh one when there is none.
func takeScratch() *scratch {
	sc := kept.Swap(nil)
	if sc == nil {
		sc = new(scratch)
	}
	// Entry 0 is unused: each array starts one zero long.
	sc.parent, sc.pathOf, sc.end = append(sc.parent[:0], 0), append(sc.pathOf[:0], 0), append(sc.end[:0], 0)
	sc.depth, sc.rank, sc.strs = append(sc.depth[:0], 0), append(sc.rank[:0], 0), sc.strs[:0]
	return sc
}

// release clears every string reference and keeps the set, unless it
// outgrew MaxKeptRows.
func (sc *scratch) release() {
	if cap(sc.parent) <= MaxKeptRows && cap(sc.strs) <= MaxKeptRows {
		clear(sc.strs)
		kept.Store(sc)
	}
}

// double reallocates s with twice its capacity, 256 at least.
func double[T any](s []T) []T { return append(make([]T, 0, max(2*cap(s), 256)), s...) }

// exact copies s into a slice whose capacity is its length.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// relations distributes sc's associations over their paths, each
// relation allocated once at its size, and counts their bytes.
func (sc *scratch) relations(sum *pathsum.Summary) ([]*bat.BAT[string], int) {
	counts := make([]int, sum.Len())
	for _, a := range sc.strs {
		counts[a.path]++
	}
	rels, n := make([]*bat.BAT[string], sum.Len()), 0
	for pid, c := range counts {
		if c > 0 {
			rels[pid] = bat.NewWithCapacity[string](sum.String(pathsum.PathID(pid)), c)
		}
	}
	for _, a := range sc.strs {
		rels[a.path].Append(a.owner, a.value)
		n += len(a.value)
	}
	return rels, n
}

// NewLoader returns a loader that hands each completed store to emit.
func NewLoader(emit func(*Store) error) *Loader { return &Loader{emit: emit} }

// NewIndexingLoader is NewLoader with an indexer per part: index is
// called as each part starts, and the part's indexer has been closed
// and waited for when its store reaches emit.
func NewIndexingLoader(index func() Indexer, emit func(*Store) error) *Loader {
	return &Loader{emit: emit, index: index}
}

// Abort abandons the part under construction, if any: a parse that
// failed leaves one. Its indexer is stopped and waited for, and its
// scratch is dropped, not kept. Call it whenever the parse feeding the
// loader returns an error.
func (l *Loader) Abort() {
	if l.ix != nil {
		l.ix.Wait(true)
	}
	l.ix, l.fed, l.sc, l.sum, l.open = nil, 0, nil, nil, l.open[:0]
}

// Load shreds doc into a Store: Document.Emit into a Loader.
func Load(doc *xmltree.Document) (*Store, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("monetx: load: nil document")
	}
	var s *Store
	if err := doc.Emit(NewLoader(func(loaded *Store) error { s = loaded; return nil })); err != nil {
		return nil, err
	}
	return s, nil
}

// node appends a node labelled label under the innermost open element
// to the per-OID arrays.
func (l *Loader) node(label string) (bat.OID, pathsum.PathID, error) {
	if l.sc == nil {
		l.sc, l.sum = takeScratch(), pathsum.New()
		if l.index != nil {
			l.ix, l.fed = l.index(), 0
		}
	}
	sc := l.sc
	parent, parentPath, rank := bat.Nil, pathsum.Invalid, int32(1)
	if n := len(l.open); n > 0 {
		top := &l.open[n-1]
		top.kids++
		parent, parentPath, rank = top.oid, top.path, top.kids
	}
	pid, err := l.sum.Intern(parentPath, label, pathsum.Elem)
	if err != nil {
		return 0, 0, fmt.Errorf("monetx: load: %w", err)
	}
	if len(sc.parent) == cap(sc.parent) {
		// Double the five together: append alone grows a large slice
		// by a quarter, which copies every array five times over.
		sc.parent, sc.pathOf, sc.end = double(sc.parent), double(sc.pathOf), double(sc.end)
		sc.depth, sc.rank = double(sc.depth), double(sc.rank)
	}
	oid := bat.OID(len(sc.parent))
	sc.parent = append(sc.parent, parent)
	sc.pathOf = append(sc.pathOf, pid)
	sc.depth = append(sc.depth, int32(len(l.open)))
	sc.rank = append(sc.rank, rank)
	sc.end = append(sc.end, oid)
	return oid, pid, nil
}

// attr records one string association of node oid at path pid.
func (l *Loader) attr(oid bat.OID, pid pathsum.PathID, name, value string) error {
	apid, err := l.sum.Intern(pid, name, pathsum.Attr)
	if err != nil {
		return fmt.Errorf("monetx: load: %w", err)
	}
	sc := l.sc
	sc.strs = append(sc.strs, assoc{apid, oid, value})
	if l.ix != nil && len(sc.strs)-l.fed == indexChunk {
		l.ix.Feed(sc.strs[l.fed:len(sc.strs):len(sc.strs)])
		l.fed = len(sc.strs)
	}
	return nil
}

// Start opens an element.
func (l *Loader) Start(label string, attrs []xmltree.Attr) error {
	oid, pid, err := l.node(label)
	if err != nil {
		return err
	}
	for _, a := range attrs {
		if err := l.attr(oid, pid, a.Name, a.Value); err != nil {
			return err
		}
	}
	l.open = append(l.open, frame{oid: oid, path: pid})
	return nil
}

// Text adds a cdata node, its text the node's "string" attribute.
func (l *Loader) Text(text string) error {
	oid, pid, err := l.node(xmltree.CDataLabel)
	if err != nil {
		return err
	}
	return l.attr(oid, pid, StringAttr, text)
}

// End closes the innermost open element; closing the root completes the
// store.
func (l *Loader) End() error {
	sc, top := l.sc, l.open[len(l.open)-1]
	sc.end[top.oid] = bat.OID(len(sc.parent) - 1)
	if l.open = l.open[:len(l.open)-1]; len(l.open) > 0 {
		return nil
	}
	ix := l.ix
	if ix != nil {
		ix.Close(sc.strs[:len(sc.strs):len(sc.strs)])
	}
	// What stays resident is what Stats counts: each column at its size.
	s := &Store{summary: l.sum, root: 1, parent: exact(sc.parent), pathOf: exact(sc.pathOf),
		depth: exact(sc.depth), rank: exact(sc.rank), end: exact(sc.end)}
	s.strs, s.strBytes = sc.relations(l.sum)
	s.seal()
	if ix != nil {
		ix.Wait(false) // the scratch barrier: nothing reads a chunk past here
	}
	l.ix, l.fed, l.sc, l.sum = nil, 0, nil, nil
	sc.release()
	return l.emit(s)
}
