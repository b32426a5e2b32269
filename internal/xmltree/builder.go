package xmltree

import (
	"fmt"

	"ncq/internal/bat"
	"ncq/internal/pathsum"
)

// Builder constructs a Document programmatically. The generators in
// internal/datagen and the parser both go through it, so every document
// in the system satisfies the same invariants (see Document.Validate).
//
// Usage:
//
//	b := NewBuilder("bibliography")
//	art := b.Element(b.Root(), "article", Attr{"key", "BB99"})
//	b.Text(art, "…")
//	doc, err := b.Done()
type Builder struct {
	root *Node
	n    int // nodes added below the root
	err  error
}

// NewBuilder starts a document whose root element has the given label.
func NewBuilder(rootLabel string) *Builder {
	b := &Builder{root: &Node{Kind: Element, Label: rootLabel}}
	if rootLabel == CDataLabel {
		b.err = fmt.Errorf("xmltree: root label %q is reserved for character data", rootLabel)
	}
	if rootLabel == "" {
		b.err = fmt.Errorf("xmltree: empty root label")
	}
	return b
}

// Root returns the root node under construction.
func (b *Builder) Root() *Node { return b.root }

// Err returns the first error the builder has recorded, the one Done
// will report. A parser checks it after each start tag so that input
// the builder refuses is abandoned where it went wrong, not after the
// rest of its tree has been built.
func (b *Builder) Err() error { return b.err }

// checkDepth refuses a node at the given depth (root = 0) when the
// document would then nest more than pathsum.MaxDepth levels of nodes:
// monetx.Load could not intern the node's paths, so the refusal
// happens here, before the tree exists.
func (b *Builder) checkDepth(depth int) {
	if b.err == nil && depth >= pathsum.MaxDepth {
		b.err = fmt.Errorf("xmltree: document nests deeper than %d levels", pathsum.MaxDepth)
	}
}

// Element appends a child element to parent and returns it.
func (b *Builder) Element(parent *Node, label string, attrs ...Attr) *Node {
	if b.err == nil {
		switch {
		case parent == nil:
			b.err = fmt.Errorf("xmltree: Element with nil parent")
		case parent.Kind != Element:
			b.err = fmt.Errorf("xmltree: cannot add element under cdata node")
		case label == CDataLabel:
			b.err = fmt.Errorf("xmltree: element label %q is reserved for character data", label)
		case label == "":
			b.err = fmt.Errorf("xmltree: empty element label")
		}
	}
	n := &Node{Kind: Element, Label: label, Attrs: attrs, Parent: parent}
	b.n++
	if parent != nil {
		n.Depth = parent.Depth + 1
		b.checkDepth(n.Depth)
		parent.Children = append(parent.Children, n)
	}
	return n
}

// Text appends a character-data child to parent and returns it. Empty
// text is dropped (nil is returned) so that whitespace-only content
// never produces nodes.
func (b *Builder) Text(parent *Node, text string) *Node {
	if text == "" {
		return nil
	}
	if b.err == nil {
		switch {
		case parent == nil:
			b.err = fmt.Errorf("xmltree: Text with nil parent")
		case parent.Kind != Element:
			b.err = fmt.Errorf("xmltree: cannot add text under cdata node")
		}
	}
	n := &Node{Kind: CData, Label: CDataLabel, Text: text, Parent: parent}
	b.n++
	if parent != nil {
		n.Depth = parent.Depth + 1
		b.checkDepth(n.Depth)
		parent.Children = append(parent.Children, n)
	}
	return n
}

// Done finalises the document: it assigns preorder OIDs, depths,
// sibling ranks and subtree intervals, and returns the Document. The
// builder must not be reused afterwards.
func (b *Builder) Done() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	d := &Document{Root: b.root, nodes: make([]*Node, 1, b.n+2)} // OID 0 is Nil
	next := bat.OID(1)
	var rec func(n *Node, depth int) bat.OID
	rec = func(n *Node, depth int) bat.OID {
		n.OID = next
		n.Depth = depth
		next++
		d.nodes = append(d.nodes, n)
		end := n.OID
		for i, c := range n.Children {
			c.Rank = i + 1
			end = rec(c, depth+1)
		}
		n.End = end
		return end
	}
	rec(b.root, 0)
	b.root.Rank = 1
	return d, nil
}

// MustDocument builds a document from a nesting function and panics on
// error; it keeps test fixtures compact.
func MustDocument(rootLabel string, build func(b *Builder)) *Document {
	b := NewBuilder(rootLabel)
	if build != nil {
		build(b)
	}
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

// Fig1 constructs the example document of the paper's Figure 1: a
// bibliography of one institute with two articles. The preorder OID
// assignment reproduces the paper's numbering exactly:
//
//	o1 bibliography, o2 institute, o3 article[key=BB99], o4 author,
//	o5 firstname, o6 cdata "Ben", o7 lastname, o8 cdata "Bit",
//	o9 title, o10 cdata "How to Hack", o11 year, o12 cdata "1999",
//	o13 article[key=BK99], o14 author, o15 cdata "Bob Byte",
//	o16 title, o17 cdata "Hacking & RSI", o18 year, o19 cdata "1999".
func Fig1() *Document {
	return MustDocument("bibliography", func(b *Builder) {
		inst := b.Element(b.Root(), "institute")

		a1 := b.Element(inst, "article", Attr{"key", "BB99"})
		au1 := b.Element(a1, "author")
		fn := b.Element(au1, "firstname")
		b.Text(fn, "Ben")
		ln := b.Element(au1, "lastname")
		b.Text(ln, "Bit")
		t1 := b.Element(a1, "title")
		b.Text(t1, "How to Hack")
		y1 := b.Element(a1, "year")
		b.Text(y1, "1999")

		a2 := b.Element(inst, "article", Attr{"key", "BK99"})
		au2 := b.Element(a2, "author")
		b.Text(au2, "Bob Byte")
		t2 := b.Element(a2, "title")
		b.Text(t2, "Hacking & RSI")
		y2 := b.Element(a2, "year")
		b.Text(y2, "1999")
	})
}
