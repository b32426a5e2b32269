package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r and returns its syntax tree.
//
// Following the paper's "common simplification", PCDATA and CDATA are
// not distinguished: any non-whitespace character data becomes a cdata
// node. Adjacent character-data tokens (as produced by entity
// references) are merged into a single node. Comments, processing
// instructions and directives are skipped. Namespace prefixes are kept
// verbatim as part of the label, since the paper's model is purely
// label-based.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var (
		b       *Builder
		stack   []*Node
		pending strings.Builder
	)
	flushText := func() {
		if pending.Len() == 0 {
			return
		}
		// Leading and trailing whitespace is formatting, not data, in
		// the paper's model; internal whitespace is preserved.
		text := strings.TrimSpace(pending.String())
		pending.Reset()
		if text == "" {
			return
		}
		b.Text(stack[len(stack)-1], text)
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse at byte %d: %w", dec.InputOffset(), err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			label := flatName(t.Name)
			if label == CDataLabel {
				return nil, fmt.Errorf("xmltree: parse at byte %d: element uses reserved label %q",
					dec.InputOffset(), CDataLabel)
			}
			attrs := make([]Attr, 0, len(t.Attr))
			for _, a := range t.Attr {
				attrs = append(attrs, Attr{flatName(a.Name), a.Value})
			}
			if b == nil {
				b = NewBuilder(label)
				b.Root().Attrs = attrs
				stack = append(stack, b.Root())
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse at byte %d: multiple root elements", dec.InputOffset())
			}
			flushText()
			n := b.Element(stack[len(stack)-1], label, attrs...)
			if err := b.Err(); err != nil {
				return nil, fmt.Errorf("xmltree: parse at byte %d: %w", dec.InputOffset(), err)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %s", flatName(t.Name))
			}
			flushText()
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if b != nil && len(stack) > 0 {
				pending.Write(t)
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Outside the paper's data model; skipped.
		}
	}
	if b == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: %d unclosed element(s)", len(stack))
	}
	return b.Done()
}

// ParseString is Parse on a string; convenient in tests and examples.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// flatName renders an xml.Name with its namespace prefix dropped and
// the space kept only when it looks like a prefix URI is absent. The
// paper's model has no namespaces, so local names suffice.
func flatName(n xml.Name) string { return n.Local }
