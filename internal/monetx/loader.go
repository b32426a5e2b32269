package monetx

import (
	"context"
	"fmt"
	"math"
	"runtime/trace"
	"slices"
	"sync/atomic"

	"ncq/internal/bat"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// Loader is the one writer of a store's columns. It is an xmltree.Sink:
// each event carries, together with the loader's stack of open
// elements, everything the Monet transform records about a node — the
// OID is the count of nodes started, the parent and its path are the
// top frame, and the subtree ends at the count reached when the element
// closes — so a parse shreds without a tree. A node's depth and rank
// are not written: the store derives them from its path and from the
// intervals. A node's string associations are recorded as it starts,
// so they come in owner order. When the root closes the columns move
// from scratch to the sealed store handed to emit, the associations
// laid out as its table; a split parse then starts the next part with
// the next Start.
//
// Every value — an attribute's, a text's — is copied into one append-
// only byte arena as it arrives, and an association records where it
// lies; no string is made per value. A loader made by NewIndexingLoader
// also hands each part's string associations to an Indexer as it
// records them, every indexChunk of them in load order, so an index can
// be built beside the parse — and the values are interned there, off
// the parse: the indexer's ids are the ones the table stores, and the
// distinct values become substrings of one string. A loader without one
// interns its part's values itself as the root closes. The chunks alias
// the loader's scratch, which is why both exits of a part — its root
// closing, Abort after a refused parse or replay — wait for the part's
// indexer before the scratch is cleared or kept.
type Loader struct {
	ctx   context.Context // whose trace task the stages of a part's close are regions of; nil: none
	emit  func(*Store) error
	index func() Indexer   // makes each part's indexer; nil: none
	ix    Indexer          // the part under construction's indexer
	fed   int              // its associations handed to ix
	sum   *pathsum.Summary // the paths of the part under construction
	sc    *scratch         // its columns; nil between parts
	open  []frame
}

// An Indexer consumes the string associations of one part while the
// part loads, interning their values. Feed and Close hand it chunks in
// load order; a chunk aliases the loader's scratch and stays valid until
// Wait returns, so the distinct values must be strings of their own by
// then.
type Indexer interface {
	// Feed hands over the next full chunk.
	Feed(chunk Chunk)
	// Close hands over every association of the part, those fed
	// before included: the part is complete and its indexer may finish
	// on its own.
	Close(all Chunk)
	// Wait returns once no chunk is read any more. With abort set the
	// part is abandoned: the indexer stops early and keeps nothing.
	// Otherwise it returns the value id of every association, in the
	// order fed, which stay valid until the part's store has been handed
	// to emit, and the distinct values by id, which the store keeps: a
	// slice exactly as long as it holds, as Interner.Values makes it.
	Wait(abort bool) (ids []uint32, values []string)
}

// Chunk is a run of string associations in load order, with the
// loader's text arena as it was when the chunk was handed over: every
// value of the chunk lies in it, and a later growth of the arena
// reallocates it without moving those bytes.
type Chunk struct {
	rows []assoc
	text []byte
}

// Len returns the number of associations in c.
func (c Chunk) Len() int { return len(c.rows) }

// Text returns the arena c's values lie in: a prefix of every later
// chunk's of the part.
func (c Chunk) Text() []byte { return c.text }

// Span returns where the value of the i-th association lies in Text.
func (c Chunk) Span(i int) (start, end uint32) { return c.rows[i].start, c.rows[i].end }

// From returns c from its i-th association on.
func (c Chunk) From(i int) Chunk { return Chunk{c.rows[i:], c.text} }

// indexChunk is how many associations a Feed hands over: a few thousand
// keep the hand-offs rare and leave the indexer little to catch up on
// once the root closes.
const indexChunk = 2048

// frame is one open element.
type frame struct {
	oid  bat.OID
	path pathsum.PathID
}

// scratch is where a load writes the per-OID arrays (entry 0 unused),
// every string association, in load order, and every value's bytes, and
// where a load with no indexer interns the values. kept retains one set
// between loads; a load that fails never gives its set back.
type scratch struct {
	parent []bat.OID
	pathOf []pathsum.PathID
	end    []bat.OID
	strs   []assoc
	text   []byte     // the arena: every value, in load order
	texts  []textPath // by element path: its text's paths, once interned
	in     Interner
}

// assoc is one string association: the value text[start:end] of the
// arena, owned by owner, at path.
type assoc struct {
	path       pathsum.PathID
	owner      bat.OID
	start, end uint32
}

// textPath is the path of an element path's cdata child and of that
// child's string attribute; zero, the root's path, until a text is read
// there.
type textPath struct{ cdata, str pathsum.PathID }

// MaxKeptRows bounds the scratch a package keeps between loads: a set
// grown past it, in nodes, strings, values or paths, is dropped, and so
// is one whose arena grew past maxKeptText bytes, 16 a string.
const (
	MaxKeptRows = 1 << 17
	maxKeptText = 16 * MaxKeptRows
)

// maxText bounds a part's arena, whose offsets are 32 bits.
const maxText = math.MaxUint32

var kept atomic.Pointer[scratch]

// takeScratch takes the kept set, or a fresh one when there is none.
func takeScratch() *scratch {
	sc := kept.Swap(nil)
	if sc == nil {
		sc = new(scratch)
	}
	// Entry 0 is unused: each array starts one zero long.
	sc.parent, sc.pathOf, sc.end = append(sc.parent[:0], 0), append(sc.pathOf[:0], 0), append(sc.end[:0], 0)
	sc.strs, sc.text, sc.texts = sc.strs[:0], sc.text[:0], sc.texts[:0]
	return sc
}

// release keeps the set, unless it outgrew MaxKeptRows or maxKeptText.
func (sc *scratch) release() {
	if cap(sc.parent) <= MaxKeptRows && cap(sc.strs) <= MaxKeptRows && cap(sc.texts) <= MaxKeptRows &&
		cap(sc.text) <= maxKeptText && sc.in.Reset() {
		kept.Store(sc)
	}
}

// double reallocates s with twice its capacity, 256 at least.
func double[T any](s []T) []T { return append(make([]T, 0, max(2*cap(s), 256)), s...) }

// exact copies s into a slice whose capacity is its length.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// layout writes sc's associations into s's table, each carrying the
// value id ids holds for it in load order. They come in owner order, and
// an element's attributes in the order written, which is path order
// unless an earlier element at its path wrote them otherwise: an owner's
// rows out of path order are sorted by (path, load order) packed in a
// word, so two attributes at one path — a dropped prefix can make them
// — keep the order written.
func (sc *scratch) layout(s *Store, ids []uint32) {
	n := len(sc.strs)
	s.owners, s.paths, s.vals = make([]bat.OID, n), make([]pathsum.PathID, n), make([]uint32, n)
	for r, a := range sc.strs {
		s.owners[r], s.paths[r], s.vals[r] = a.owner, a.path, ids[r]
	}
	var keys []uint64
	for lo, hi := 0, 0; lo < n; lo = hi {
		inOrder := true
		for hi = lo + 1; hi < n && s.owners[hi] == s.owners[lo]; hi++ {
			inOrder = inOrder && s.paths[hi-1] < s.paths[hi]
		}
		if inOrder {
			continue
		}
		keys = keys[:0]
		for r := lo; r < hi; r++ {
			keys = append(keys, uint64(s.paths[r])<<32|uint64(r))
		}
		slices.Sort(keys)
		for i, k := range keys {
			s.paths[lo+i], s.vals[lo+i] = pathsum.PathID(k>>32), ids[uint32(k)]
		}
	}
}

// NewLoader returns a loader that hands each completed store to emit.
func NewLoader(emit func(*Store) error) *Loader { return &Loader{emit: emit} }

// NewIndexingLoader is NewLoader with an indexer per part: index is
// called as each part starts, and the part's indexer has been closed
// and waited for when its store reaches emit.
func NewIndexingLoader(index func() Indexer, emit func(*Store) error) *Loader {
	return &Loader{emit: emit, index: index}
}

// Trace makes the two stages of each part's close — the wait for its
// indexer, the layout of its table and the seal — regions of ctx's
// trace task, named "index wait" and "layout+seal". Untraced, a region
// costs a check and no allocation.
func (l *Loader) Trace(ctx context.Context) { l.ctx = ctx }

// stage runs fn, as the region name of the loader's trace task if it
// has one.
func (l *Loader) stage(name string, fn func()) {
	if l.ctx == nil {
		fn()
		return
	}
	trace.WithRegion(l.ctx, name, fn)
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

// node appends a node at path pid under the innermost open element to
// the per-OID arrays.
func (l *Loader) node(pid pathsum.PathID) bat.OID {
	sc, parent := l.sc, bat.Nil
	if n := len(l.open); n > 0 {
		parent = l.open[n-1].oid
	}
	if len(sc.parent) == cap(sc.parent) {
		// Double the three together: append alone grows a large slice
		// by a quarter, which copies every array five times over.
		sc.parent, sc.pathOf, sc.end = double(sc.parent), double(sc.pathOf), double(sc.end)
	}
	oid := bat.OID(len(sc.parent))
	sc.parent = append(sc.parent, parent)
	sc.pathOf = append(sc.pathOf, pid)
	sc.end = append(sc.end, oid)
	return oid
}

// str records a string association of node oid at attribute path apid
// whose value is the arena from start on, and hands the indexer every
// indexChunk of them.
func (l *Loader) str(oid bat.OID, apid pathsum.PathID, start int) error {
	sc := l.sc
	if uint64(len(sc.text)) > maxText {
		return fmt.Errorf("monetx: load: a part's values exceed %d bytes", uint64(maxText))
	}
	sc.strs = append(sc.strs, assoc{apid, oid, uint32(start), uint32(len(sc.text))})
	if l.ix != nil && len(sc.strs)-l.fed == indexChunk {
		l.ix.Feed(l.chunk(l.fed))
		l.fed = len(sc.strs)
	}
	return nil
}

// chunk returns the part's associations from the from-th on, capped so
// that no later append writes into what it holds.
func (l *Loader) chunk(from int) Chunk {
	sc := l.sc
	return Chunk{sc.strs[from:len(sc.strs):len(sc.strs)], sc.text[:len(sc.text):len(sc.text)]}
}

// Start opens an element.
func (l *Loader) Start(label string, attrs []xmltree.Attr) error {
	if l.sc == nil {
		l.sc, l.sum = takeScratch(), pathsum.New()
		if l.index != nil {
			l.ix, l.fed = l.index(), 0
		}
	}
	parentPath := pathsum.Invalid
	if n := len(l.open); n > 0 {
		parentPath = l.open[n-1].path
	}
	pid, err := l.sum.Intern(parentPath, label, pathsum.Elem)
	if err != nil {
		return fmt.Errorf("monetx: load: %w", err)
	}
	oid := l.node(pid)
	for _, a := range attrs {
		apid, err := l.sum.Intern(pid, a.Name, pathsum.Attr)
		if err != nil {
			return fmt.Errorf("monetx: load: %w", err)
		}
		start := len(l.sc.text)
		l.sc.text = append(l.sc.text, a.Value...)
		if err := l.str(oid, apid, start); err != nil {
			return err
		}
	}
	l.open = append(l.open, frame{oid: oid, path: pid})
	return nil
}

// Text adds a cdata node, its text the node's "string" attribute. The
// two paths are interned at the first text under an element path and
// read from texts after it.
func (l *Loader) Text(text []byte) error {
	if len(l.open) == 0 {
		return fmt.Errorf("monetx: load: text outside the root")
	}
	sc, parent := l.sc, l.open[len(l.open)-1].path
	if int(parent) >= len(sc.texts) {
		sc.texts = append(sc.texts, make([]textPath, int(parent)+1-len(sc.texts))...)
	}
	tp := &sc.texts[parent]
	if tp.cdata == 0 {
		cdata, err := l.sum.Intern(parent, xmltree.CDataLabel, pathsum.Elem)
		if err != nil {
			return fmt.Errorf("monetx: load: %w", err)
		}
		str, err := l.sum.Intern(cdata, StringAttr, pathsum.Attr)
		if err != nil {
			return fmt.Errorf("monetx: load: %w", err)
		}
		*tp = textPath{cdata, str}
	}
	oid := l.node(tp.cdata)
	start := len(sc.text)
	sc.text = append(sc.text, text...)
	return l.str(oid, tp.str, start)
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
		ix.Close(l.chunk(0))
	}
	// What stays resident is what Stats counts: each column at its size.
	// The per-OID arrays are copied while an indexer interns the last
	// chunk; the table waits for its value ids.
	s := &Store{summary: l.sum, root: 1, parent: exact(sc.parent), pathOf: exact(sc.pathOf), end: exact(sc.end)}
	var ids []uint32
	var values []string
	if ix != nil {
		// The scratch barrier: nothing reads a chunk past here.
		l.stage("index wait", func() { ids, values = ix.Wait(false) })
	} else {
		for _, a := range sc.strs {
			sc.in.Add(sc.text, a.start, a.end)
		}
		ids, values = sc.in.IDs(), sc.in.Values(sc.text)
	}
	s.values = values
	l.stage("layout+seal", func() {
		sc.layout(s, ids)
		s.seal()
	})
	l.ix, l.fed, l.sc, l.sum = nil, 0, nil, nil
	sc.release()
	return l.emit(s)
}
