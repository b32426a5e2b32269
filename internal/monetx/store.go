// Package monetx implements the physical data model of the paper: the
// Monet transform (Definition 4), which shreds an XML syntax tree into
// binary association tables partitioned by path.
//
// For a document d, the store holds
//
//   - one association table of its strings: a row per string
//     association — owner OID, attribute path, value id — in (owner,
//     path) order, over the distinct values; character data is the
//     attribute "string" of cdata nodes, so the rows at path
//     /…/cdata@string hold the text (paper Figure 2),
//   - the per-OID arrays parent, path and subtree-end,
//   - the path summary as the catalogue of all relations.
//
// The paper assumes path(o) is derivable from an OID "for free" (citing
// functional-join techniques [8]); the arrays are this reproduction's
// equivalent, and what a path determines is not stored again: a node's
// depth is its path's depth in the summary, and its sibling rank is
// counted off the preorder intervals of its parent's earlier children.
// The table is the paper's string relations laid side by side: the rows
// at one path, in owner order, are the relation (ownerOID, value) that
// Figure 2 names by that path, and a node's strings are adjacent, which
// is what a look-up and a subtree's walk read. It is also the table the
// full-text index searches (internal/fulltext), which shares its columns
// instead of keeping a copy. Figure 2's other relation families — per
// element path its edges (parentOID, childOID), and one rank relation
// (oid, siblingRank) — say nothing the arrays do not, so they are not
// stored either: DumpTransform prints each edge relation from the OIDs
// at its path and their parents. The one view kept is OIDsAt's per-path
// OID lists, the query language's FROM index, built on first use and
// kept; no term request builds it. Stats counts the associations of all
// four families, as Figure 2 does, and the bytes of what is resident.
//
// xmltree.Sink events go both ways. Loader, a sink, writes the columns,
// fed by the parser (no tree is built) or by a tree's walk (Load), and
// can hand each part's string associations, in chunks as it records
// them, to an Indexer that interns their values and builds beside the
// load; Store.Emit walks a subtree back out into any sink —
// xmltree.Writer prints it, xmltree.Documents rebuilds it.
package monetx

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"ncq/internal/bat"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// StringAttr is the reserved attribute name under which the text of a
// cdata node is stored, as in the paper's …/cdata@string relations.
const StringAttr = "string"

// Store is a loaded document in Monet transform representation.
type Store struct {
	summary *pathsum.Summary

	// Per-OID arrays, indexed by OID (entry 0 unused).
	parent []bat.OID
	pathOf []pathsum.PathID
	end    []bat.OID // largest OID in the node's subtree (preorder interval)

	// The association table: row r says owners[r] carries
	// values[vals[r]] at attribute path paths[r]. Rows ascend by
	// (owner, path); values holds each distinct string once, all of
	// them substrings of one string, so a value kept past the store
	// keeps every value: what outlives it is strings.Clone'd.
	owners []bat.OID
	paths  []pathsum.PathID
	vals   []uint32
	values []string

	stats Stats // computed once, by seal

	// The per-path OID lists, built on first use under their Once so
	// that a loaded store is safe for concurrent readers.
	lists  sync.Once
	oidsAt [][]bat.OID // elem path -> member OIDs in doc order

	root bat.OID
}

// seal completes a store whose per-OID arrays and association table are
// written: it computes Stats, once; the writer knows everything they
// report. Associations counts the relations of Figure 2 whether stored
// or derived: an edge per node but the root, a rank per node, and the
// strings. Every element path but the root's names an edge relation,
// and every attribute path a string relation: a load interns one only
// as it records a string there. MemBytes counts what is resident: the
// three per-OID arrays, the table's three columns and its distinct
// values with their bytes — not the OID lists, which most stores never
// build.
func (s *Store) seal() {
	n := s.Len()
	st := Stats{Nodes: n, Paths: s.summary.Len(), Associations: 2*n - 1 + len(s.owners), EdgeRelations: -1}
	for pid := range pathsum.PathID(st.Paths) {
		if s.summary.Kind(pid) == pathsum.Elem {
			st.EdgeRelations++
		} else {
			st.StrRelations++
		}
	}
	st.MemBytes = 3*4*len(s.parent) + 3*4*len(s.owners) + 16*len(s.values)
	for _, v := range s.values {
		st.MemBytes += len(v)
	}
	s.stats = st
}

// buildLists derives the per-path OID lists: slices of one array of
// every OID, grouped by path, in document order within a path, and nil
// at attribute paths.
func (s *Store) buildLists() {
	counts := make([]int, s.summary.Len())
	for _, pid := range s.pathOf[1:] {
		counts[pid]++
	}
	s.oidsAt = make([][]bat.OID, len(counts))
	all := make([]bat.OID, s.Len())
	for pid, c := range counts {
		if c > 0 {
			s.oidsAt[pid], all = all[:0:c], all[c:]
		}
	}
	for i, pid := range s.pathOf[1:] {
		s.oidsAt[pid] = append(s.oidsAt[pid], bat.OID(i+1))
	}
}

// Table returns the association table's columns — owner, attribute path
// and value id per row, in (owner, path) order — and the distinct values
// by id. They are the store's own: read them, never write them.
func (s *Store) Table() (owners []bat.OID, paths []pathsum.PathID, vals []uint32, values []string) {
	return s.owners, s.paths, s.vals, s.values
}

// Summary returns the path summary (the relation catalogue).
func (s *Store) Summary() *pathsum.Summary { return s.summary }

// Root returns the OID of the document root.
func (s *Store) Root() bat.OID { return s.root }

// Len returns the number of nodes in the store.
func (s *Store) Len() int { return len(s.parent) - 1 }

// ValidOID reports whether o names a node of this store.
func (s *Store) ValidOID(o bat.OID) bool {
	return o != bat.Nil && int(o) < len(s.parent)
}

// Parent returns the parent OID of o (bat.Nil for the root). This is
// the paper's parent(o) hash look-up, served from the parent array.
func (s *Store) Parent(o bat.OID) bat.OID { return s.parent[o] }

// PathOf returns the path of node o (the paper's path(o), which "comes
// for free by looking at the name of the relation").
func (s *Store) PathOf(o bat.OID) pathsum.PathID { return s.pathOf[o] }

// Depth returns the number of edges between o and the root: the depth
// of its path.
func (s *Store) Depth(o bat.OID) int { return s.summary.Depth(s.pathOf[o]) }

// Rank returns o's 1-based position among its siblings: one more than
// the parent's children before it, stepped through by their intervals.
func (s *Store) Rank(o bat.OID) int {
	r := 1
	if p := s.parent[o]; p != bat.Nil {
		for c := p + 1; c != o; c = s.end[c] + 1 {
			r++
		}
	}
	return r
}

// Label returns the element label of o (CDataLabel for cdata nodes).
func (s *Store) Label(o bat.OID) string { return s.summary.Label(s.pathOf[o]) }

// PathString renders o's path, e.g. "/bibliography/institute/article".
func (s *Store) PathString(o bat.OID) string { return s.summary.String(s.pathOf[o]) }

// End returns the last OID of o's subtree: o's preorder interval is
// o..End(o).
func (s *Store) End(o bat.OID) bat.OID { return s.end[o] }

// Contains reports whether descendant lies in ancestor's subtree
// (ancestor included), in O(1) via the preorder interval.
func (s *Store) Contains(ancestor, descendant bat.OID) bool {
	return ancestor <= descendant && descendant <= s.end[ancestor]
}

// ContainsViaJoins is the paper-faithful ancestorship test: it walks
// parent look-ups from descendant until it reaches ancestor or passes
// its depth. The tests cross-check it against Contains.
func (s *Store) ContainsViaJoins(ancestor, descendant bat.OID) bool {
	ad := s.Depth(ancestor)
	for cur := descendant; cur != bat.Nil && s.Depth(cur) >= ad; cur = s.parent[cur] {
		if cur == ancestor {
			return true
		}
	}
	return false
}

// OIDsAt returns the OIDs of all nodes at path p in document order,
// building every path's list on the first call. The returned slice
// must not be modified.
func (s *Store) OIDsAt(p pathsum.PathID) []bat.OID {
	if p < 0 || int(p) >= s.summary.Len() {
		return nil
	}
	s.lists.Do(s.buildLists)
	return s.oidsAt[p]
}

// Text returns the character data of a cdata node, its …/cdata@string
// association. The boolean is false when o is not a cdata node or has no
// stored text.
func (s *Store) Text(o bat.OID) (string, bool) {
	if s.summary.Label(s.pathOf[o]) != xmltree.CDataLabel {
		return "", false
	}
	return s.AttrValue(o, StringAttr)
}

// AttrValue returns the value of the named attribute of element o: one
// search for o's first row, then o's few rows.
func (s *Store) AttrValue(o bat.OID, name string) (string, bool) {
	for r := s.firstRow(o); r < len(s.owners) && s.owners[r] == o; r++ {
		if s.summary.Label(s.paths[r]) == name {
			return s.values[s.vals[r]], true
		}
	}
	return "", false
}

// firstRow returns the first row owned by o or by a later owner. The
// rows spread over the OIDs about evenly, so the search starts at the
// row o's share of them puts it at and gallops out from there to bound
// a binary search: a few probes close together, where one binary search
// over the whole column touches a cache line per level.
func (s *Store) firstRow(o bat.OID) int {
	n := len(s.owners)
	lo := min(n, int(uint64(o)*uint64(n)/uint64(len(s.parent))))
	hi := lo // the row sought is in [lo, hi]
	for step := 1; lo > 0 && s.owners[lo-1] >= o; step *= 2 {
		hi, lo = lo-1, max(0, lo-step)
	}
	for step := 1; hi < n && s.owners[hi] < o; step *= 2 {
		lo, hi = hi+1, min(n, hi+step)
	}
	r, _ := slices.BinarySearch(s.owners[lo:hi], o)
	return lo + r
}

// DocBefore reports whether a starts before b in document order. OIDs
// are assigned in preorder, so the comparison is direct — this is the
// functionality of XQL's before/after predicates the paper's related
// work points to.
func (s *Store) DocBefore(a, b bat.OID) bool { return a < b }

// NextSibling returns the sibling immediately following o in document
// order, or bat.Nil when o is the last child (or the root): the node
// after o's subtree, if the parent's subtree reaches that far.
func (s *Store) NextSibling(o bat.OID) bat.OID {
	if p := s.parent[o]; p != bat.Nil && s.end[o] < s.end[p] {
		return s.end[o] + 1
	}
	return bat.Nil
}

// PrevSibling returns the sibling immediately preceding o, or bat.Nil
// when o is the first child (or the root): the child of o's parent
// whose subtree ends just before o.
func (s *Store) PrevSibling(o bat.OID) bat.OID {
	p := s.parent[o]
	if p == bat.Nil || o == p+1 {
		return bat.Nil
	}
	c := o - 1
	for c != bat.Nil && s.parent[c] != p {
		c = s.parent[c]
	}
	return c
}

// Children returns the child OIDs of o in document order, read off the
// preorder interval: the first child follows o, each next one follows
// its predecessor's subtree, until o's own subtree ends.
func (s *Store) Children(o bat.OID) []bat.OID {
	var out []bat.OID
	for c := o + 1; c <= s.end[o]; c = s.end[c] + 1 {
		out = append(out, c)
	}
	return out
}

// Emit walks the subtree rooted at element o into sink, one event per
// node of the preorder interval o..End(o), as Children reads it: a
// node's depth says how many open elements end before it, so no tree or
// stack is built. Attributes come out sorted by name, stably. A cdata o
// has no XML form and is refused, as is an OID that names no node.
func (s *Store) Emit(o bat.OID, sink xmltree.Sink) error { return s.emit(o, sink, true) }

// emit is Emit with each element's attributes in attribute-path order
// unless sorted is set: the snapshot writer's walk, which a replay
// interns the same path ids from. The subtree's strings are the table's
// rows from o's first on, in its nodes' order and each node's in path
// order, so the walk reads them forward without a search. Each text goes
// out through one reused buffer.
func (s *Store) emit(o bat.OID, sink xmltree.Sink, sorted bool) error {
	switch {
	case !s.ValidOID(o):
		return fmt.Errorf("monetx: reassemble: invalid OID %d", o)
	case s.Label(o) == xmltree.CDataLabel:
		return fmt.Errorf("monetx: reassemble subtree: OID %d is character data, not an element", o)
	}
	r := s.firstRow(o)
	var attrs []xmltree.Attr
	var text []byte
	open := 0 // elements started and not yet ended
	closeTo := func(n int) error {
		for ; open > n; open-- {
			if err := sink.End(); err != nil {
				return err
			}
		}
		return nil
	}
	base := s.Depth(o)
	for x := o; x <= s.end[o]; x++ {
		if err := closeTo(s.Depth(x) - base); err != nil {
			return err
		}
		attrs = attrs[:0]
		for ; r < len(s.owners) && s.owners[r] == x; r++ {
			attrs = append(attrs, xmltree.Attr{Name: s.summary.Label(s.paths[r]), Value: s.values[s.vals[r]]})
		}
		var err error
		if label := s.Label(x); label != xmltree.CDataLabel {
			if sorted {
				slices.SortStableFunc(attrs, func(a, b xmltree.Attr) int { return strings.Compare(a.Name, b.Name) })
			}
			err = sink.Start(label, attrs)
			open++
		} else if len(attrs) > 0 {
			text = append(text[:0], attrs[0].Value...) // a cdata node's one attribute is its text
			err = sink.Text(text)
		}
		if err != nil {
			return err
		}
	}
	return closeTo(0)
}

// Stats summarises the store: node, relation and association counts
// plus the bytes of its resident columns. The paper reports its servers'
// memory needs; Stats lets the benchmarks do the same.
type Stats struct {
	Nodes         int
	Paths         int
	EdgeRelations int
	StrRelations  int
	Associations  int
	MemBytes      int
}

// Stats returns the storage statistics, computed when the store was
// loaded or read.
func (s *Store) Stats() Stats { return s.stats }
