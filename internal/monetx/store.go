// Package monetx implements the physical data model of the paper: the
// Monet transform (Definition 4), which shreds an XML syntax tree into
// binary association tables partitioned by path.
//
// For a document d, the store holds
//
//   - one string relation per attribute path: pairs (ownerOID, value);
//     character data is the attribute "string" of cdata nodes, so the
//     relation /…/cdata@string holds the text (paper Figure 2),
//   - per element path, the OIDs of the nodes at that path in document
//     order,
//   - the per-OID arrays parent, path, depth, rank and subtree-end,
//   - the path summary as the catalogue of all relations.
//
// The paper assumes path(o) is derivable from an OID "for free" (citing
// functional-join techniques [8]); the arrays are this reproduction's
// equivalent. Figure 2's other two relation families — one edge
// relation (parentOID, childOID) and one rank relation (oid,
// siblingRank) per element path — say nothing the OID lists and the
// arrays do not, so they are not stored: the rank is the rank array,
// and Edges (the Figure-2 dump) and ParentBAT (the child→parent
// relation the BAT-join ablation of internal/experiments joins with)
// build their relation from those on first use and keep it. Stats
// counts the associations of all four families, as Figure 2 does, and
// the bytes of what is resident.
//
// xmltree.Sink events go both ways. Loader, a sink, writes the columns,
// fed by the parser (no tree is built) or by a tree's walk (Load);
// Store.Emit walks a subtree back out into any sink — xmltree.Writer
// prints it, xmltree.Documents rebuilds it.
package monetx

import (
	"fmt"
	"slices"
	"sort"
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
	depth  []int32
	rank   []int32
	end    []bat.OID // largest OID in the node's subtree (preorder interval)

	// Path-partitioned columns, indexed by PathID and as long as the
	// summary: strs is nil at element paths, oidsAt at attribute paths.
	strs   []*bat.BAT[string] // attr path -> (owner, value)
	oidsAt [][]bat.OID        // elem path -> member OIDs in doc order

	strBytes int   // bytes of character data in strs
	stats    Stats // computed once, by seal

	// The edge and parent relations of Figure 2, built per path on
	// first use under viewMu so that a loaded store is safe for
	// concurrent readers.
	viewMu  sync.Mutex
	edges   map[pathsum.PathID]*bat.BAT[bat.OID] // child path -> (parent, child)
	revEdge map[pathsum.PathID]*bat.BAT[bat.OID] // child path -> (child, parent)

	root bat.OID
}

func (s *Store) appendString(apid pathsum.PathID, owner bat.OID, value string) {
	for int(apid) >= len(s.strs) {
		s.strs = append(s.strs, nil)
	}
	b := s.strs[apid]
	if b == nil {
		b = bat.New[string](s.summary.String(apid))
		s.strs[apid] = b
	}
	b.Append(owner, value)
	s.strBytes += len(value)
}

// seal completes a store whose per-OID arrays and string relations are
// written: it derives the per-path OID lists — slices of one array of
// every OID, grouped by path, in document order within a path — and
// computes Stats, once; the writer knows everything they report.
// Associations counts the relations of Figure 2 whether stored or
// derived: an edge per node but the root, a rank per node, and the
// strings. MemBytes counts what is resident: the five per-OID arrays,
// the OID lists, the string relations and their character data — not
// the views, which most stores never build.
func (s *Store) seal() {
	n, nPaths := s.Len(), s.summary.Len()
	for len(s.strs) < nPaths {
		s.strs = append(s.strs, nil)
	}
	counts := make([]int, nPaths)
	for _, pid := range s.pathOf[1:] {
		counts[pid]++
	}
	st := Stats{Nodes: n, Paths: nPaths, Associations: 2*n - 1, EdgeRelations: -1}
	s.oidsAt = make([][]bat.OID, nPaths)
	all := make([]bat.OID, n)
	for pid, c := range counts {
		if c > 0 {
			s.oidsAt[pid], all = all[:0:c], all[c:]
			st.EdgeRelations++ // every populated element path but the root's
		}
	}
	for i, pid := range s.pathOf[1:] {
		s.oidsAt[pid] = append(s.oidsAt[pid], bat.OID(i+1))
	}
	for _, b := range s.strs {
		if b != nil {
			st.StrRelations++
			st.Associations += b.Len()
			st.MemBytes += b.MemBytes()
		}
	}
	st.MemBytes += s.strBytes + 5*4*len(s.parent) + 4*n
	s.stats = st
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

// Depth returns the number of edges between o and the root.
func (s *Store) Depth(o bat.OID) int { return int(s.depth[o]) }

// Rank returns o's 1-based position among its siblings.
func (s *Store) Rank(o bat.OID) int { return int(s.rank[o]) }

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
	ad := s.depth[ancestor]
	for cur := descendant; cur != bat.Nil && s.depth[cur] >= ad; cur = s.parent[cur] {
		if cur == ancestor {
			return true
		}
	}
	return false
}

// view returns the edge relation of element path p kept in *memo,
// building it on first use: one pair per node at p in document order,
// named — as every relation of the transform is — by the path, and nil
// for the root path, whose one node has no incoming edge. Safe for
// concurrent callers, who all get the same BAT.
func view(s *Store, memo *map[pathsum.PathID]*bat.BAT[bat.OID], p pathsum.PathID, pair func(o bat.OID) (bat.OID, bat.OID)) *bat.BAT[bat.OID] {
	oids := s.OIDsAt(p)
	if len(oids) == 0 || oids[0] == s.root {
		return nil
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if b, ok := (*memo)[p]; ok {
		return b
	}
	b := bat.NewWithCapacity[bat.OID](s.summary.String(p), len(oids))
	for _, o := range oids {
		b.Append(pair(o))
	}
	if *memo == nil {
		*memo = make(map[pathsum.PathID]*bat.BAT[bat.OID])
	}
	(*memo)[p] = b
	return b
}

// Edges returns the edge relation of the given element path: pairs
// (parentOID, childOID) for every node at that path. It is nil for the
// root path (the root has no incoming edge) and for unknown paths.
func (s *Store) Edges(p pathsum.PathID) *bat.BAT[bat.OID] {
	return view(s, &s.edges, p, func(o bat.OID) (bat.OID, bat.OID) { return s.parent[o], o })
}

// Strings returns the string relation of the given attribute path:
// pairs (ownerOID, value). Nil for unknown paths.
func (s *Store) Strings(p pathsum.PathID) *bat.BAT[string] {
	if p < 0 || int(p) >= len(s.strs) {
		return nil
	}
	return s.strs[p]
}

// OIDsAt returns the OIDs of all nodes at path p in document order.
// The returned slice must not be modified.
func (s *Store) OIDsAt(p pathsum.PathID) []bat.OID {
	if p < 0 || int(p) >= len(s.oidsAt) {
		return nil
	}
	return s.oidsAt[p]
}

// ParentBAT returns the child→parent relation for nodes at path p —
// the edge relation reversed, the relational form of the parent
// function used in the paper's Figures 4 and 5. It is nil for the root
// path and for unknown paths.
func (s *Store) ParentBAT(p pathsum.PathID) *bat.BAT[bat.OID] {
	return view(s, &s.revEdge, p, func(o bat.OID) (bat.OID, bat.OID) { return o, s.parent[o] })
}

// Text returns the character data of a cdata node, served from the
// …/cdata@string relation. The boolean is false when o is not a cdata
// node or has no stored text.
func (s *Store) Text(o bat.OID) (string, bool) {
	pid := s.pathOf[o]
	if s.summary.Label(pid) != xmltree.CDataLabel {
		return "", false
	}
	for _, apid := range s.summary.AttrPaths(pid) {
		if s.summary.Label(apid) == StringAttr {
			return s.strs[apid].Find(o)
		}
	}
	return "", false
}

// AttrValue returns the value of the named attribute of element o,
// served from the path-partitioned string relations.
func (s *Store) AttrValue(o bat.OID, name string) (string, bool) {
	pid := s.pathOf[o]
	for _, apid := range s.summary.AttrPaths(pid) {
		if s.summary.Label(apid) == name {
			return s.strs[apid].Find(o)
		}
	}
	return "", false
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
func (s *Store) Emit(o bat.OID, sink xmltree.Sink) error {
	switch {
	case !s.ValidOID(o):
		return fmt.Errorf("monetx: reassemble: invalid OID %d", o)
	case s.Label(o) == xmltree.CDataLabel:
		return fmt.Errorf("monetx: reassemble subtree: OID %d is character data, not an element", o)
	}
	// next[p]-1 is where the walk is in string relation p, whose owners
	// ascend: searched at the first look (0), then only read forward.
	next := make([]int, len(s.strs))
	var attrs []xmltree.Attr
	open := 0 // elements started and not yet ended
	closeTo := func(n int) error {
		for ; open > n; open-- {
			if err := sink.End(); err != nil {
				return err
			}
		}
		return nil
	}
	for x := o; x <= s.end[o]; x++ {
		if err := closeTo(int(s.depth[x] - s.depth[o])); err != nil {
			return err
		}
		pid := s.pathOf[x]
		attrs = attrs[:0]
		for _, apid := range s.summary.AttrPaths(pid) {
			rel := s.strs[apid]
			if rel == nil {
				continue
			}
			i := next[apid] - 1
			if i < 0 {
				i = sort.Search(rel.Len(), func(i int) bool { return rel.Head(i) >= x })
			}
			for ; i < rel.Len() && rel.Head(i) <= x; i++ {
				if rel.Head(i) == x {
					attrs = append(attrs, xmltree.Attr{Name: s.summary.Label(apid), Value: rel.Tail(i)})
				}
			}
			next[apid] = i + 1
		}
		var err error
		if label := s.summary.Label(pid); label != xmltree.CDataLabel {
			slices.SortStableFunc(attrs, func(a, b xmltree.Attr) int { return strings.Compare(a.Name, b.Name) })
			err = sink.Start(label, attrs)
			open++
		} else if len(attrs) > 0 {
			err = sink.Text(attrs[0].Value) // a cdata node's one attribute is its text
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
