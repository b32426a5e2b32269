package xmltree

import (
	"bufio"
	"math/rand"
	"strings"
	"testing"
)

// referenceWriteXML is the recursive serialiser Writer replaced, kept
// verbatim but for its error wrapping as what Writer is held to: the
// same bytes for every tree, but for the carriage return it wrote raw.
func referenceWriteXML(d *Document, indent bool) string {
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	var writeNode func(n *Node, depth int)
	writeNode = func(n *Node, depth int) {
		if indent && (depth > 0 || n.Rank > 1) {
			w.WriteString("\n")
		}
		if indent {
			w.WriteString(strings.Repeat("  ", depth))
		}
		if n.Kind == CData {
			referenceEscape(w, n.Text, "&<>")
			return
		}
		w.WriteString("<" + n.Label)
		for _, a := range n.Attrs {
			w.WriteString(" " + a.Name + `="`)
			referenceEscape(w, a.Value, `&<"`)
			w.WriteString(`"`)
		}
		if len(n.Children) == 0 {
			w.WriteString("/>")
			return
		}
		w.WriteString(">")
		for _, c := range n.Children {
			writeNode(c, depth+1)
		}
		if indent {
			w.WriteString("\n" + strings.Repeat("  ", depth))
		}
		w.WriteString("</" + n.Label + ">")
	}
	writeNode(d.Root, 0)
	if indent {
		w.WriteString("\n")
	}
	w.Flush()
	return sb.String()
}

func referenceEscape(w *bufio.Writer, s, special string) {
	names := map[rune]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '"': "&quot;"}
	for _, r := range s {
		if strings.ContainsRune(special, r) {
			w.WriteString(names[r])
		} else {
			w.WriteRune(r)
		}
	}
}

// TestWriterEqualsRecursiveWriter: Document.WriteXML — the tree's walk
// into the Writer — prints what the recursive serialiser printed,
// compact and indented, on trees with every escape, bytes that are not
// UTF-8 and random shapes.
func TestWriterEqualsRecursiveWriter(t *testing.T) {
	docs := []*Document{
		Fig1(),
		MustDocument("r", func(b *Builder) {
			e := b.Element(b.Root(), "e", Attr{"a", `<>&"'`}, Attr{"b", "\xff\xfe é"})
			b.Text(e, `x < y && y > "z" ]]> 'q'`)
			b.Text(b.Element(e, "f"), "\xc3 ü \t\n")
			b.Element(b.Root(), "g")
		}),
	}
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 100; i++ {
		docs = append(docs, Random(r, 10+i*3))
	}
	for i, d := range docs {
		for _, indent := range []bool{false, true} {
			var got strings.Builder
			if err := d.WriteXML(&got, indent); err != nil {
				t.Fatal(err)
			}
			if want := referenceWriteXML(d, indent); got.String() != want {
				t.Fatalf("doc %d, indent %t:\n got %q\nwant %q", i, indent, got.String(), want)
			}
		}
	}
}

// TestRoundTripCarriageReturn: a character reference to U+000D is the
// one way a carriage return reaches text or an attribute value — a
// literal one is read as a line feed — so the writer must write the
// reference back, or the document changes on its way through XML.
func TestRoundTripCarriageReturn(t *testing.T) {
	d, err := ParseString(`<a k="x&#13;y">x&#xD;y</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Root.Attr("k"); v != "x\ry" || d.Node(2).Text != "x\ry" {
		t.Fatalf("parsed attribute %q and text %q, want both %q", v, d.Node(2).Text, "x\ry")
	}
	const want = `<a k="x&#13;y">x&#13;y</a>`
	if got := d.XMLString(); got != want {
		t.Errorf("XMLString = %q, want %q", got, want)
	}
	for _, indent := range []bool{false, true} {
		var sb strings.Builder
		if err := d.WriteXML(&sb, indent); err != nil {
			t.Fatal(err)
		}
		back, err := ParseString(sb.String())
		if err != nil || !Equal(d, back) {
			t.Errorf("indent %t: %q does not parse back to the document (%v)", indent, sb.String(), err)
		}
	}
}
