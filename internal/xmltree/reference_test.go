package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// referenceParseSplit is the token loop ParseSplit ran on encoding/xml
// before the scanner replaced it, kept verbatim as the definition of
// the accepted language: FuzzParse and the refusal table compare the
// scanner against it — same accept/refuse, same trees, same parts.
func referenceParseSplit(r io.Reader, cut func(span int64) bool, emit func(*Document) error) error {
	dec := xml.NewDecoder(r)
	var (
		b       *Builder
		stack   []*Node
		pending strings.Builder
		start   int64 // input offset at which the part under construction began
		parts   int   // parts emitted so far
	)
	flushText := func() {
		if pending.Len() == 0 {
			return
		}
		text := strings.TrimSpace(pending.String())
		pending.Reset()
		if text == "" {
			return
		}
		b.Text(stack[len(stack)-1], text)
	}
	finish := func() error {
		d, err := b.Done()
		if err != nil {
			return err
		}
		parts++
		return emit(d)
	}
	boundary := func() error {
		if cut == nil || len(stack) != 1 || len(b.Root().Children) == 0 || !cut(dec.InputOffset()-start) {
			return nil
		}
		root := b.Root()
		if err := finish(); err != nil {
			return err
		}
		b = NewBuilder(root.Label)
		b.Root().Attrs = append([]Attr(nil), root.Attrs...)
		stack[0] = b.Root()
		start = dec.InputOffset()
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("xmltree: parse at byte %d: %w", dec.InputOffset(), err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			label := t.Name.Local
			if label == CDataLabel {
				return fmt.Errorf("xmltree: parse at byte %d: element uses reserved label %q",
					dec.InputOffset(), CDataLabel)
			}
			attrs := make([]Attr, 0, len(t.Attr))
			for _, a := range t.Attr {
				attrs = append(attrs, Attr{a.Name.Local, a.Value})
			}
			if b == nil {
				b = NewBuilder(label)
				b.Root().Attrs = attrs
				stack = append(stack, b.Root())
				start = dec.InputOffset()
				continue
			}
			if len(stack) == 0 {
				return fmt.Errorf("xmltree: parse at byte %d: multiple root elements", dec.InputOffset())
			}
			flushText()
			if err := boundary(); err != nil {
				return err
			}
			n := b.Element(stack[len(stack)-1], label, attrs...)
			if err := b.Err(); err != nil {
				return fmt.Errorf("xmltree: parse at byte %d: %w", dec.InputOffset(), err)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return fmt.Errorf("xmltree: parse: unbalanced end element %s", t.Name.Local)
			}
			flushText()
			stack = stack[:len(stack)-1]
			if err := boundary(); err != nil {
				return err
			}
		case xml.CharData:
			if b != nil && len(stack) > 0 {
				pending.Write(t)
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Outside the paper's data model; skipped.
		}
	}
	if b == nil {
		return fmt.Errorf("xmltree: parse: empty document")
	}
	if len(stack) != 0 {
		return fmt.Errorf("xmltree: parse: %d unclosed element(s)", len(stack))
	}
	if parts > 0 && len(b.Root().Children) == 0 {
		return nil // the last cut fell after the last child: nothing is left to emit
	}
	return finish()
}

func referenceParse(in string) (doc *Document, err error) {
	err = referenceParseSplit(strings.NewReader(in), nil, func(d *Document) error { doc = d; return nil })
	return doc, err
}
