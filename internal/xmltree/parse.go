package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"ncq/internal/pathsum"
)

// Sink receives a document as ParseSplit reads it, one call per node in
// document order: Start opens an element as the next child of the
// innermost open one (the first Start opens the root), Text adds a
// character-data child to it, End closes it. The End that closes the
// root completes a document; in a split parse a Start may follow it and
// opens the root of the next part. attrs and the bytes of text are
// valid only during the call: a sink that keeps either copies it. An
// error from any method aborts the parse and is returned as is.
//
// Document.Emit and monetx's Store.Emit walk a tree and a store into a
// sink too. Documents builds trees, Writer prints XML, monetx.Loader
// fills a store's columns, and package shard has a sink that only
// counts (Weigh) and one that cuts the events into shards (Balance).
type Sink interface {
	Start(label string, attrs []Attr) error
	Text(text []byte) error
	End() error
}

// Documents returns the sink that builds a Document per completed root
// through a Builder and hands it to emit.
func Documents(emit func(*Document) error) Sink { return &treeSink{emit: emit} }

type treeSink struct {
	b    *Builder
	open []*Node
	emit func(*Document) error
}

func (t *treeSink) Start(label string, attrs []Attr) error {
	if len(attrs) > 0 {
		attrs = append([]Attr(nil), attrs...)
	}
	if len(t.open) == 0 {
		t.b = NewBuilder(label)
		t.b.Root().Attrs = attrs
		t.open = append(t.open, t.b.Root())
	} else {
		t.open = append(t.open, t.b.Element(t.open[len(t.open)-1], label, attrs...))
	}
	return t.b.Err()
}

func (t *treeSink) Text(text []byte) error {
	t.b.Text(t.open[len(t.open)-1], string(text))
	return t.b.Err()
}

func (t *treeSink) End() error {
	if t.open = t.open[:len(t.open)-1]; len(t.open) > 0 {
		return nil
	}
	d, err := t.b.Done()
	if err != nil {
		return err
	}
	return t.emit(d)
}

// Parse reads an XML document from r and returns its syntax tree.
//
// Following the paper's "common simplification", PCDATA and CDATA are
// not distinguished: any non-whitespace character data becomes a cdata
// node. Adjacent character-data tokens (as produced by entity
// references) are merged into a single node. Comments, processing
// instructions and directives are skipped. Namespace prefixes are
// dropped: the paper's model is purely label-based, so local names
// suffice.
func Parse(r io.Reader) (*Document, error) {
	var doc *Document
	if err := ParseSplit(r, nil, Documents(func(d *Document) error { doc = d; return nil })); err != nil {
		return nil, err
	}
	return doc, nil
}

// ParseSplit is the one token loop every XML body goes through: Parse
// with the option of delivering the document in parts, to any sink. cut
// is consulted at each boundary between two top-level children of the
// root — never deeper, where a cut would take nodes from their
// ancestors — with the number of input bytes the part under
// construction spans; when it says yes, the root is closed in the sink,
// which completes a part of the children read so far, and reopened
// (same label and attributes) before the next child. The last part is
// completed at the end of input, so a sink sees no complete document
// from input that is refused after its root closes; no part is without
// children unless it is the whole document, which is what a nil cut
// delivers.
//
// Every refusal reads "xmltree: parse at byte N: …" with N the input
// offset one past what had been read when it was detected. The ones
// that are policy rather than XML — the reserved cdata label, a repeated
// attribute name, a second root, nesting beyond pathsum.MaxDepth — are
// raised here, at the end of the offending start tag, whatever the sink.
// A refusal the sink returns from Start, Text or End is wrapped (%w) the
// same way, at the offset the parser had reached when it made the call.
func ParseSplit(r io.Reader, cut func(span int64) bool, sink Sink) error {
	return parse(newScanner(r, scanWindow), cut, sink)
}

func parse(s *scanner, cut func(span int64) bool, sink Sink) error {
	var (
		open      []string // qualified names of the open elements, root first
		rootLabel string
		rootAttrs []Attr
		seenRoot  bool
		rootOpen  bool   // the sink has the root open: false between a cut and the next child
		kids      int    // children of the root in the part under construction
		start     int64  // input offset at which the part under construction began
		pending   []byte // character data since the last tag, decoded
	)
	// child prepares the sink for a node at depth len(open): refuses it
	// beyond the depth bound and reopens the root after a cut.
	child := func() error {
		if len(open) >= pathsum.MaxDepth {
			return s.failf("xmltree: document nests deeper than %d levels", pathsum.MaxDepth)
		}
		if len(open) == 1 {
			kids++
			if !rootOpen {
				rootOpen = true
				return sink.Start(rootLabel, rootAttrs)
			}
		}
		return nil
	}
	flushText := func() error {
		// Leading and trailing whitespace is formatting, not data, in
		// the paper's model; internal whitespace is preserved.
		text := bytes.TrimSpace(pending)
		pending = pending[:0]
		if len(text) == 0 {
			return nil
		}
		if err := child(); err != nil {
			return err
		}
		return sink.Text(text)
	}
	boundary := func() error {
		if cut == nil || len(open) != 1 || kids == 0 || !cut(s.offset()-start) {
			return nil
		}
		rootOpen, kids, start = false, 0, s.offset()
		return sink.End()
	}
	// closeTop closes the innermost open element: its text, then the
	// element, then — after a top-level child — the question to cut.
	closeTop := func() error {
		if err := flushText(); err != nil {
			return err
		}
		if open = open[:len(open)-1]; len(open) == 0 {
			return nil // the root stays open in the sink until the input ends cleanly
		}
		if err := sink.End(); err != nil {
			return err
		}
		return boundary()
	}
	for {
		c, ok := s.peek()
		if !ok {
			break
		}
		var err error
		markup := c == '<'
		if markup {
			s.pos++
			c, _ = s.peek()
		}
		switch {
		case !markup:
			pending = s.text(pending, 0, false)
		case c == '/':
			s.pos++
			// The end tag of an open element repeats its name: nothing
			// else can follow "</", so the name needs no other check.
			// It is matched in place, where the window holds the name
			// and the byte after it; any other end tag is scanned.
			if len(open) == 0 || !s.skipName(open[len(open)-1]) {
				name := s.nameBytes()
				switch {
				case len(open) == 0:
					s.failf("unexpected end element </%.40s>", name)
				case string(name) != open[len(open)-1]:
					s.failf("element <%s> closed by </%.40s>", open[len(open)-1], name)
				}
			}
			s.space()
			s.expect('>', "invalid characters between </ and >")
			if s.fail == nil {
				err = closeTop()
			}
		case c == '?':
			s.pos++
			s.procInst()
		case c != '!':
			name, attrs, empty := s.startTag()
			switch label := name.local; {
			case s.fail != nil:
			case label == CDataLabel:
				s.failf("element uses reserved label %q", CDataLabel)
			case s.dup != "":
				s.failf("element <%s> repeats attribute %q", label, s.dup)
			case seenRoot && len(open) == 0:
				s.failf("multiple root elements")
			case !seenRoot:
				seenRoot, rootOpen, start = true, true, s.offset()
				rootLabel, rootAttrs = label, append([]Attr(nil), attrs...)
				err = sink.Start(label, attrs)
			default:
				if err = flushText(); err == nil {
					err = boundary()
				}
				if err == nil {
					err = child()
				}
				if err == nil {
					err = sink.Start(label, attrs)
				}
			}
			if s.fail == nil && err == nil {
				if open = append(open, name.raw); empty {
					err = closeTop()
				}
			}
		case s.skip("!--"):
			// Outside the paper's data model, like processing
			// instructions and directives. "--" may only be the start
			// of the "-->" that ends the comment.
			s.skipTo("--")
			s.expect('>', `invalid sequence "--" not allowed in comments`)
		case s.skip("![CDATA["):
			pending = s.text(pending, 0, true)
		default:
			s.pos++
			s.directive()
		}
		if err != nil {
			return sinkFailed(s, err)
		}
		if len(open) == 0 {
			pending = pending[:0] // outside the root, character data is checked like any other, then dropped
		}
	}
	switch {
	case s.fail != nil:
		return s.fail
	case s.err != io.EOF:
		s.next() // refuses with the reader's error
		return s.fail
	case !seenRoot:
		return s.failf("empty document")
	case len(open) != 0:
		return s.failf("unexpected EOF: %d unclosed element(s)", len(open))
	case !rootOpen:
		return nil // the last cut fell after the last child: nothing is left to complete
	}
	return sinkFailed(s, sink.End())
}

// sinkFailed gives err, when the sink rather than the scanner raised it,
// the byte offset every other refusal carries.
func sinkFailed(s *scanner, err error) error {
	if err == nil || err == s.fail {
		return err
	}
	return fmt.Errorf("xmltree: parse at byte %d: %w", s.offset(), err)
}

// ParseString is Parse on a string; convenient in tests and examples.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}
