// Package xmltree implements the conceptual data model of the paper
// (Section 2, Definition 1): an XML document is a rooted tree with
// labelled element nodes, attribute labels, character data modelled as
// a dedicated child node labelled "cdata", and a rank that orders
// siblings.
//
// The package reads XML with its own scanner (scan.go states the
// accepted language: encoding/xml's strict one, namespaces dropped, no
// DTD entities, UTF-8 only) and hands the document, event by event, to
// a Sink — ParseSplit is the one token loop. Its own sink builds the
// tree: OIDs in depth-first document order and, for every node, its
// parent, depth, sibling rank and preorder interval. The interval gives
// O(1) ancestorship tests, which the tests use to cross-check the
// join-based navigation of the Monet store.
package xmltree

import (
	"fmt"
	"sort"
	"strings"

	"ncq/internal/bat"
)

// CDataLabel is the reserved label of character-data nodes. Element
// tags may not use it (Parse and the builder reject such documents);
// this mirrors the paper's convention of treating CDATA as a special
// "cdata" node whose text is an attribute.
const CDataLabel = "cdata"

// Kind discriminates element nodes from character-data nodes.
type Kind uint8

// Node kinds.
const (
	Element Kind = iota // an element with a tag, attributes and children
	CData               // a character-data leaf holding text
)

// String returns "element" or "cdata".
func (k Kind) String() string {
	if k == CData {
		return "cdata"
	}
	return "element"
}

// Attr is a single attribute: a (name, value) pair attached to an
// element node (the label_A function of Definition 1).
type Attr struct {
	Name  string
	Value string
}

// Node is one node of the XML syntax tree.
type Node struct {
	OID   bat.OID // depth-first preorder identifier, root = 1
	Kind  Kind
	Label string // element tag; CDataLabel for character data
	Text  string // character data; empty for elements
	Attrs []Attr // attributes in document order; nil for cdata nodes

	Parent   *Node
	Children []*Node

	Rank  int     // 1-based position among siblings
	Depth int     // number of edges from the root
	End   bat.OID // largest OID in this node's subtree (preorder interval)
}

// IsRoot reports whether the node is the document root.
func (n *Node) IsRoot() bool { return n.Parent == nil }

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// PathLabels returns the labels on the path from the root down to n,
// inclusive — the paper's path(o) of Definition 3.
func (n *Node) PathLabels() []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur.Label)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// PathString renders the node's path as "/a/b/c".
func (n *Node) PathString() string {
	return "/" + strings.Join(n.PathLabels(), "/")
}

// Contains reports whether other lies in n's subtree (n included),
// using the preorder interval: O(1).
func (n *Node) Contains(other *Node) bool {
	return n.OID <= other.OID && other.OID <= n.End
}

// Document is a parsed XML document: the root node plus an OID-indexed
// directory of all nodes.
type Document struct {
	Root  *Node
	nodes []*Node // nodes[oid] for oid in [1, len); nodes[0] == nil
}

// Len returns the number of nodes (elements plus cdata nodes).
func (d *Document) Len() int { return len(d.nodes) - 1 }

// Node returns the node with the given OID, or nil when out of range.
func (d *Document) Node(oid bat.OID) *Node {
	if int(oid) <= 0 || int(oid) >= len(d.nodes) {
		return nil
	}
	return d.nodes[oid]
}

// MaxOID returns the largest assigned OID.
func (d *Document) MaxOID() bat.OID { return bat.OID(len(d.nodes) - 1) }

// Walk visits every node in document (preorder) order. It stops early
// when fn returns false.
func (d *Document) Walk(fn func(*Node) bool) {
	var rec func(*Node) bool
	rec = func(n *Node) bool {
		if !fn(n) {
			return false
		}
		for _, c := range n.Children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	if d.Root != nil {
		rec(d.Root)
	}
}

// LCA returns the lowest common ancestor of a and b by plain parent
// walking. It is deliberately naive: the meet package's algorithms are
// verified against it.
func (d *Document) LCA(a, b *Node) *Node {
	for a.Depth > b.Depth {
		a = a.Parent
	}
	for b.Depth > a.Depth {
		b = b.Parent
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// Dist returns the number of edges on the unique path between a and b.
func (d *Document) Dist(a, b *Node) int {
	m := d.LCA(a, b)
	return (a.Depth - m.Depth) + (b.Depth - m.Depth)
}

// Validate checks the structural invariants the rest of the system
// relies on: preorder OID assignment, parent/child symmetry, contiguous
// 1-based ranks, depth bookkeeping and interval containment. It returns
// the first violation found, or nil.
func (d *Document) Validate() error {
	if d.Root == nil {
		return fmt.Errorf("xmltree: document has no root")
	}
	if d.Root.OID != 1 {
		return fmt.Errorf("xmltree: root OID = %d, want 1", d.Root.OID)
	}
	next := bat.OID(1)
	var err error
	d.Walk(func(n *Node) bool {
		if n.OID != next {
			err = fmt.Errorf("xmltree: node %q has OID %d, want %d (preorder)", n.Label, n.OID, next)
			return false
		}
		next++
		if d.Node(n.OID) != n {
			err = fmt.Errorf("xmltree: directory entry for OID %d does not match node", n.OID)
			return false
		}
		if n.Kind == CData && (len(n.Children) > 0 || len(n.Attrs) > 0) {
			err = fmt.Errorf("xmltree: cdata node %d has children or attributes", n.OID)
			return false
		}
		if n.Kind == Element && n.Label == CDataLabel {
			err = fmt.Errorf("xmltree: element node %d uses reserved label %q", n.OID, CDataLabel)
			return false
		}
		for i, c := range n.Children {
			if c.Parent != n {
				err = fmt.Errorf("xmltree: child %d of node %d has wrong parent", c.OID, n.OID)
				return false
			}
			if c.Rank != i+1 {
				err = fmt.Errorf("xmltree: child %d of node %d has rank %d, want %d", c.OID, n.OID, c.Rank, i+1)
				return false
			}
			if c.Depth != n.Depth+1 {
				err = fmt.Errorf("xmltree: child %d depth %d, want %d", c.OID, c.Depth, n.Depth+1)
				return false
			}
			if !(n.OID < c.OID && c.End <= n.End) {
				err = fmt.Errorf("xmltree: interval of child %d not contained in parent %d", c.OID, n.OID)
				return false
			}
		}
		if len(n.Children) == 0 && n.End != n.OID {
			err = fmt.Errorf("xmltree: leaf %d has End %d, want %d", n.OID, n.End, n.OID)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if int(next)-1 != d.Len() {
		return fmt.Errorf("xmltree: walked %d nodes, directory holds %d", int(next)-1, d.Len())
	}
	return nil
}

// Equal reports whether two documents have identical structure, labels,
// attributes and text. OIDs are compared implicitly because both sides
// are preorder-numbered.
func Equal(a, b *Document) bool {
	if a.Len() != b.Len() {
		return false
	}
	var eq func(x, y *Node) bool
	eq = func(x, y *Node) bool {
		if x.Kind != y.Kind || x.Label != y.Label || x.Text != y.Text {
			return false
		}
		if len(x.Attrs) != len(y.Attrs) || len(x.Children) != len(y.Children) {
			return false
		}
		for i := range x.Attrs {
			if x.Attrs[i] != y.Attrs[i] {
				return false
			}
		}
		for i := range x.Children {
			if !eq(x.Children[i], y.Children[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.Root, b.Root)
}

// Labels returns the sorted set of distinct element labels in the
// document (excluding the cdata label); handy for diagnostics.
func (d *Document) Labels() []string {
	set := map[string]struct{}{}
	d.Walk(func(n *Node) bool {
		if n.Kind == Element {
			set[n.Label] = struct{}{}
		}
		return true
	})
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
