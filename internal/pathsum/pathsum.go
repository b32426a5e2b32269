// Package pathsum implements the path summary of the paper
// (Definition 3): the set of all label paths occurring in a document,
// interned into small integer identifiers.
//
// The Monet transform stores one binary relation per path, so the path
// summary doubles as the catalogue of the store. It is tree-shaped —
// each path has a unique parent path — which is exactly the structure
// the general meet algorithm (Figure 5 of the paper) rolls up bottom-up.
// internal/core runs that roll-up over the nodes' preorder intervals
// instead; here the summary names the result type of each meet.
//
// The prefix order of Definition 5 (path(o1) ≤ path(o2) iff path(o2)
// is a prefix of path(o1)) becomes an ancestor test on summary nodes.
//
// Intern is called once per node and per string of a document being
// loaded, so it has two look-ups (find): a parent with few steps is
// searched in its own child list, a wide one through a map.
package pathsum

import "fmt"

// PathID identifies an interned path. IDs are dense indices starting at
// 0 (the root path); Invalid marks "no path".
type PathID int32

// Invalid is the PathID of no path, e.g. the parent of the root path.
const Invalid PathID = -1

// Kind discriminates element paths from attribute paths. Character
// data is an element path with the label "cdata"; its text lives under
// an attribute path named "string", following the paper's Figure 2
// (relations like bibliography/institute/article/year/cdata@string).
type Kind uint8

// Path kinds.
const (
	Elem Kind = iota // an element (or cdata) step
	Attr             // an attribute leaf
)

// MaxDepth is the deepest a path may lie below the root path
// (Depth(id) <= MaxDepth): room for a document nesting MaxDepth levels
// of nodes, root included, plus the attribute step under the deepest.
// Real corpora nest tens of levels (DBLP 6, Treebank 36), so 4096
// refuses no real document; what it refuses is the single-chain upload
// whose rendered paths — every path stores its full string, so a chain
// of depth d retains d²/2 label bytes — would otherwise grow
// quadratically in a few kilobytes of input. At the bound that is
// 16 MiB of one-byte labels and tens of milliseconds to load.
const MaxDepth = 4096

// MaxPathBytes bounds the rendered path strings one summary holds, in
// bytes. MaxDepth bounds a chain by its labels' length only: 4 KiB
// names nested 4096 deep render 32 GiB, and a snapshot names each label
// once in its table however often its paths repeat it. The bound is
// four times what the deepest chain of one-byte labels renders.
const MaxPathBytes = 64 << 20

type node struct {
	parent   PathID
	label    string
	str      string // the rendered path, built once by Intern
	kind     Kind
	depth    int32
	children []PathID // element children, in interning order
	attrs    []PathID // attribute children, in interning order
}

type key struct {
	parent PathID
	label  string
	kind   Kind
}

// Summary is an interned path summary. The zero value is not usable;
// construct with New.
type Summary struct {
	nodes []node
	byKey map[key]PathID
	bytes int // of the rendered paths
}

// New returns an empty summary.
func New() *Summary {
	return &Summary{byKey: make(map[key]PathID)}
}

// Intern returns the PathID for the path that extends parent with one
// step (label, kind), creating it if needed. The root path is interned
// with parent == Invalid and must be an element. Interning is
// idempotent: the same step yields the same ID. A step that would lie
// more than MaxDepth below the root, or take the rendered paths past
// MaxPathBytes, is refused.
func (s *Summary) Intern(parent PathID, label string, kind Kind) (PathID, error) {
	if parent == Invalid && kind != Elem {
		return Invalid, fmt.Errorf("pathsum: root path must be an element, got attribute %q", label)
	}
	if parent != Invalid && !s.valid(parent) {
		return Invalid, fmt.Errorf("pathsum: unknown parent path %d", parent)
	}
	if label == "" {
		return Invalid, fmt.Errorf("pathsum: empty label")
	}
	if id, ok := s.find(parent, label, kind); ok {
		return id, nil
	}
	if parent == Invalid && len(s.nodes) > 0 {
		return Invalid, fmt.Errorf("pathsum: second root path %q (root is %q)", label, s.nodes[0].label)
	}
	var depth int32
	sep, prefix := "/", ""
	if parent != Invalid {
		depth = s.nodes[parent].depth + 1
		prefix = s.nodes[parent].str
		if kind == Attr {
			sep = "@"
		}
	}
	if depth > MaxDepth {
		return Invalid, fmt.Errorf("pathsum: step %q lies %d steps below the root path, limit is %d", label, depth, MaxDepth)
	}
	n := len(prefix) + len(sep) + len(label)
	if s.bytes+n > MaxPathBytes {
		return Invalid, fmt.Errorf("pathsum: step %.64q takes the rendered paths past %d bytes", label, MaxPathBytes)
	}
	s.bytes += n
	id := PathID(len(s.nodes))
	s.nodes = append(s.nodes, node{parent: parent, label: label, str: prefix + sep + label, kind: kind, depth: depth})
	s.byKey[key{parent, label, kind}] = id
	if parent != Invalid {
		if kind == Attr {
			s.nodes[parent].attrs = append(s.nodes[parent].attrs, id)
		} else {
			s.nodes[parent].children = append(s.nodes[parent].children, id)
		}
	}
	return id, nil
}

// scanSiblings is the longest sibling list find searches itself.
const scanSiblings = 8

// find returns the path one step (label, kind) below parent. A parent
// with at most scanSiblings steps of that kind is answered from its own
// list: a loader interns once per node and per string, nearly always a
// step it has seen under a parent with a handful of distinct labels, and
// the scanner interns names per document, so an equal label is almost
// always the same pointer and the comparison one word — where the map
// hashes the label every time. Wider parents and the root step take the
// map.
func (s *Summary) find(parent PathID, label string, kind Kind) (PathID, bool) {
	if parent != Invalid {
		sibs := s.nodes[parent].children
		if kind == Attr {
			sibs = s.nodes[parent].attrs
		}
		if len(sibs) <= scanSiblings {
			for _, id := range sibs {
				if s.nodes[id].label == label {
					return id, true
				}
			}
			return Invalid, false
		}
	}
	id, ok := s.byKey[key{parent, label, kind}]
	return id, ok
}

// MustIntern is Intern that panics on error; for fixtures and loaders
// whose inputs are validated elsewhere.
func (s *Summary) MustIntern(parent PathID, label string, kind Kind) PathID {
	id, err := s.Intern(parent, label, kind)
	if err != nil {
		panic(err)
	}
	return id
}

func (s *Summary) valid(id PathID) bool {
	return id >= 0 && int(id) < len(s.nodes)
}

// Len returns the number of interned paths.
func (s *Summary) Len() int { return len(s.nodes) }

// Root returns the root path's ID, or Invalid for an empty summary.
func (s *Summary) Root() PathID {
	if len(s.nodes) == 0 {
		return Invalid
	}
	return 0
}

// Parent returns the parent path of id (Invalid for the root).
func (s *Summary) Parent(id PathID) PathID { return s.nodes[id].parent }

// Label returns the last step's label of path id.
func (s *Summary) Label(id PathID) string { return s.nodes[id].label }

// Kind returns whether path id names an element or an attribute.
func (s *Summary) Kind(id PathID) Kind { return s.nodes[id].kind }

// Depth returns the number of steps below the root path (root = 0).
func (s *Summary) Depth(id PathID) int { return int(s.nodes[id].depth) }

// Children returns the element child paths of id in interning order.
// The returned slice must not be modified.
func (s *Summary) Children(id PathID) []PathID { return s.nodes[id].children }

// AttrPaths returns the attribute child paths of id in interning order.
// The returned slice must not be modified.
func (s *Summary) AttrPaths(id PathID) []PathID { return s.nodes[id].attrs }

// Labels returns the label sequence of path id from the root down.
func (s *Summary) Labels(id PathID) []string {
	var rev []string
	for cur := id; cur != Invalid; cur = s.nodes[cur].parent {
		rev = append(rev, s.nodes[cur].label)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// String renders a path as "/a/b/c" for element paths and "/a/b@n" for
// attribute paths — the display form used throughout the system. The
// string was built when the path was interned (the parent's string
// plus one step), so this neither allocates nor walks the summary.
func (s *Summary) String(id PathID) string {
	if !s.valid(id) {
		return "<invalid path>"
	}
	return s.nodes[id].str
}

// Lookup resolves a label sequence (root first) to an element PathID.
func (s *Summary) Lookup(labels []string) (PathID, bool) {
	if len(s.nodes) == 0 || len(labels) == 0 || s.nodes[0].label != labels[0] {
		return Invalid, false
	}
	cur := PathID(0)
	for _, l := range labels[1:] {
		id, ok := s.find(cur, l, Elem)
		if !ok {
			return Invalid, false
		}
		cur = id
	}
	return cur, true
}

// LookupAttr resolves a label sequence plus attribute name.
func (s *Summary) LookupAttr(labels []string, attr string) (PathID, bool) {
	owner, ok := s.Lookup(labels)
	if !ok {
		return Invalid, false
	}
	return s.find(owner, attr, Attr)
}

// IsPrefix reports whether anc is a prefix (ancestor-or-self) of id in
// the summary tree. In the paper's notation (Definition 5) this is
// path(id) ≤ path(anc).
func (s *Summary) IsPrefix(anc, id PathID) bool {
	if !s.valid(anc) || !s.valid(id) {
		return false
	}
	for cur := id; cur != Invalid; cur = s.nodes[cur].parent {
		if cur == anc {
			return true
		}
		if s.nodes[cur].depth < s.nodes[anc].depth {
			return false
		}
	}
	return false
}

// Leq is the paper's ≤ on the paths of two objects: Leq(p, q) holds
// when q's path is a prefix of p's (q at-or-above p). It is IsPrefix
// with the argument order of Definition 5.
func (s *Summary) Leq(p, q PathID) bool { return s.IsPrefix(q, p) }

// ElemPaths returns all element PathIDs in interning order.
func (s *Summary) ElemPaths() []PathID {
	out := make([]PathID, 0, len(s.nodes))
	for id := range s.nodes {
		if s.nodes[id].kind == Elem {
			out = append(out, PathID(id))
		}
	}
	return out
}

// AllPaths returns every PathID (elements and attributes) in interning
// order.
func (s *Summary) AllPaths() []PathID {
	out := make([]PathID, len(s.nodes))
	for id := range out {
		out[id] = PathID(id)
	}
	return out
}
