package xmltree

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"ncq/internal/bat"
)

// Emit walks the document into sink, one event per node in document
// order: the one walk serialising, shredding (monetx.Load) and
// splitting (shard.Split) a tree run on. It refuses a node whose OID is
// not the next in preorder, the numbering consumers reproduce by
// counting.
func (d *Document) Emit(sink Sink) error {
	next := bat.OID(1)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.OID != next {
			return fmt.Errorf("xmltree: emit: node OID %d out of document order, want %d", n.OID, next)
		}
		next++
		if n.Kind == CData {
			return sink.Text(n.Text)
		}
		if err := sink.Start(n.Label, n.Attrs); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return sink.End()
	}
	return walk(d.Root)
}

// WriteXML serialises the document as XML to w: Emit into a Writer.
// When indent is true the output is pretty-printed with two-space
// indentation and cdata content on its own line; when false the output
// is compact and round-trips exactly through Parse (whitespace-free).
func (d *Document) WriteXML(w io.Writer, indent bool) error {
	if err := d.Emit(NewWriter(w, indent)); err != nil {
		return fmt.Errorf("xmltree: write: %w", err)
	}
	return nil
}

// XMLString returns the compact XML serialisation of the document.
func (d *Document) XMLString() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb, false) // strings.Builder never errors
	return sb.String()
}

// Writer is the one XML serialiser: a Sink printing the events of a
// tree's, a store's or the parser's walk, an element without children
// self-closed. The End that closes a root writes the newline an
// indented document ends with, flushes and returns the first write
// error.
type Writer struct {
	w      *bufio.Writer
	indent bool
	open   []string // labels of the open elements, root first
	bare   bool     // the innermost start tag still lacks its '>'
}

// NewWriter returns a Writer to w, indented as WriteXML describes.
func NewWriter(w io.Writer, indent bool) *Writer {
	return &Writer{w: bufio.NewWriter(w), indent: indent}
}

// Start writes a start tag, its attributes in the order given.
func (x *Writer) Start(label string, attrs []Attr) error {
	x.child()
	x.w.WriteByte('<')
	x.w.WriteString(label) // no concatenation: the buffer's writer may keep a string
	for _, a := range attrs {
		x.w.WriteByte(' ')
		x.w.WriteString(a.Name)
		x.w.WriteString(`="`)
		x.escape(a.Value, `&<"`)
		x.w.WriteByte('"')
	}
	x.open, x.bare = append(x.open, label), true
	return nil
}

// Text writes character data.
func (x *Writer) Text(text string) error {
	x.child()
	x.escape(text, "&<>")
	return nil
}

// End writes the end tag of the innermost open element, or self-closes
// it.
func (x *Writer) End() error {
	n := len(x.open) - 1
	if x.bare {
		x.w.WriteString("/>")
	} else {
		x.newline(n)
		x.w.WriteString("</")
		x.w.WriteString(x.open[n])
		x.w.WriteByte('>')
	}
	x.open, x.bare = x.open[:n], false
	if n > 0 {
		return nil
	}
	x.newline(0)
	return x.w.Flush()
}

// child begins a node under the innermost open element: it completes
// that element's start tag and, indented, starts the node's line.
func (x *Writer) child() {
	if x.bare {
		x.w.WriteByte('>')
		x.bare = false
	}
	if len(x.open) > 0 {
		x.newline(len(x.open))
	}
}

// newline starts a line indented to depth, when indenting.
func (x *Writer) newline(depth int) {
	if x.indent {
		x.w.WriteByte('\n')
		for range depth {
			x.w.WriteString("  ")
		}
	}
}

// escape writes s with the characters in special written as references,
// and a carriage return too, which a parser would read back as a line
// feed. A byte that is not UTF-8 is written as U+FFFD.
func (x *Writer) escape(s, special string) {
	for _, r := range s {
		switch {
		case r == '\r':
			x.w.WriteString("&#13;")
		case !strings.ContainsRune(special, r):
			x.w.WriteRune(r)
		case r == '&':
			x.w.WriteString("&amp;")
		case r == '<':
			x.w.WriteString("&lt;")
		case r == '>':
			x.w.WriteString("&gt;")
		default:
			x.w.WriteString("&quot;")
		}
	}
}
