package monetx

import (
	"fmt"

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
// closes the store is sealed and handed to emit; a split parse then
// starts the next part's store with the next Start.
type Loader struct {
	emit     func(*Store) error
	sizeHint int // nodes to make room for in the next store, when known
	s        *Store
	open     []frame
}

// frame is one open element.
type frame struct {
	oid  bat.OID
	path pathsum.PathID
	kids int32 // children started so far
}

// NewLoader returns a loader that hands each completed store to emit.
func NewLoader(emit func(*Store) error) *Loader { return &Loader{emit: emit} }

// Load shreds doc into a Store: Document.Emit into a Loader sized for
// it.
func Load(doc *xmltree.Document) (*Store, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("monetx: load: nil document")
	}
	var s *Store
	l := NewLoader(func(loaded *Store) error { s = loaded; return nil })
	l.sizeHint = doc.Len()
	if err := doc.Emit(l); err != nil {
		return nil, err
	}
	return s, nil
}

// node appends a node labelled label under the innermost open element
// to the per-OID arrays.
func (l *Loader) node(label string) (bat.OID, pathsum.PathID, error) {
	if l.s == nil {
		n := max(l.sizeHint+1, 256)
		l.s = &Store{
			summary: pathsum.New(),
			parent:  make([]bat.OID, 1, n),
			pathOf:  make([]pathsum.PathID, 1, n),
			depth:   make([]int32, 1, n),
			rank:    make([]int32, 1, n),
			end:     make([]bat.OID, 1, n),
			root:    1,
		}
	}
	s := l.s
	parent, parentPath, rank := bat.Nil, pathsum.Invalid, int32(1)
	if n := len(l.open); n > 0 {
		top := &l.open[n-1]
		top.kids++
		parent, parentPath, rank = top.oid, top.path, top.kids
	}
	pid, err := s.summary.Intern(parentPath, label, pathsum.Elem)
	if err != nil {
		return 0, 0, fmt.Errorf("monetx: load: %w", err)
	}
	if len(s.parent) == cap(s.parent) {
		// Double the five together: append alone grows a large slice
		// by a quarter, which copies every column five times over.
		s.reserve(2 * cap(s.parent))
	}
	oid := bat.OID(len(s.parent))
	s.parent = append(s.parent, parent)
	s.pathOf = append(s.pathOf, pid)
	s.depth = append(s.depth, int32(len(l.open)))
	s.rank = append(s.rank, rank)
	s.end = append(s.end, oid)
	return oid, pid, nil
}

// reserve reallocates the per-OID arrays with room for n entries.
func (s *Store) reserve(n int) {
	s.parent = append(make([]bat.OID, 0, n), s.parent...)
	s.pathOf = append(make([]pathsum.PathID, 0, n), s.pathOf...)
	s.depth = append(make([]int32, 0, n), s.depth...)
	s.rank = append(make([]int32, 0, n), s.rank...)
	s.end = append(make([]bat.OID, 0, n), s.end...)
}

// attr records one string association of node oid at path pid.
func (l *Loader) attr(oid bat.OID, pid pathsum.PathID, name, value string) error {
	apid, err := l.s.summary.Intern(pid, name, pathsum.Attr)
	if err != nil {
		return fmt.Errorf("monetx: load: %w", err)
	}
	l.s.appendString(apid, oid, value)
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
	s, top := l.s, l.open[len(l.open)-1]
	s.end[top.oid] = bat.OID(len(s.parent) - 1)
	if l.open = l.open[:len(l.open)-1]; len(l.open) > 0 {
		return nil
	}
	l.s = nil
	if len(s.parent) < cap(s.parent) {
		s.reserve(len(s.parent)) // what stays resident is what Stats counts
	}
	s.seal()
	return l.emit(s)
}
