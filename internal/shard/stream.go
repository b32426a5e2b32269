package shard

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"ncq/internal/xmltree"
)

// SplitStream parses an XML document from r and splits it into at most
// k shards as the parse streams, emitting each completed shard before
// the next one is built. Unlike Parse-then-Split, at most one shard's
// tree is in memory at a time, so a multi-gigabyte upload costs one
// shard of memory, not the whole document.
//
// Boundaries follow the same rule as Split — cuts happen only between
// top-level children of the root, each shard keeping the root's label
// and attributes — but are decided by input bytes instead of node
// counts: a shard is cut once it spans at least budget bytes of input.
// The final shard takes everything remaining, so no more than k shards
// are ever emitted. The emit callback receives shards in document
// order; a non-nil error from it aborts the parse.
//
// SplitStream returns the number of shards emitted. Answer equivalence
// matches Split: with ExcludeRoot set, the union of per-shard answers
// equals the unsharded document's answers.
func SplitStream(r io.Reader, budget int64, k int, emit func(*xmltree.Document) error) (int, error) {
	if k > MaxShards {
		k = MaxShards
	}
	if k < 1 {
		k = 1
	}
	if budget < 1 {
		budget = 1
	}
	dec := xml.NewDecoder(r)
	var (
		rootLabel  string
		rootAttrs  []xmltree.Attr
		b          *xmltree.Builder
		stack      []*xmltree.Node
		pending    strings.Builder
		emitted    int
		shardStart int64
		sawRoot    bool
		rootClosed bool
	)
	newShard := func() {
		b = xmltree.NewBuilder(rootLabel)
		if len(rootAttrs) > 0 {
			b.Root().Attrs = append([]xmltree.Attr(nil), rootAttrs...)
		}
		stack = append(stack[:0], b.Root())
		shardStart = dec.InputOffset()
	}
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
			return fmt.Errorf("shard: stream: %w", err)
		}
		emitted++
		return emit(d)
	}
	// maybeCut closes the current shard when it has consumed its byte
	// budget. Called only at a top-level boundary (every child of the
	// root is complete), and never once only the final shard remains.
	maybeCut := func() error {
		if emitted >= k-1 || len(b.Root().Children) == 0 {
			return nil
		}
		if dec.InputOffset()-shardStart < budget {
			return nil
		}
		if err := finish(); err != nil {
			return err
		}
		newShard()
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return emitted, fmt.Errorf("shard: stream: parse at byte %d: %w", dec.InputOffset(), err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			label := t.Name.Local
			if label == xmltree.CDataLabel {
				return emitted, fmt.Errorf("shard: stream: parse at byte %d: element uses reserved label %q", dec.InputOffset(), xmltree.CDataLabel)
			}
			attrs := make([]xmltree.Attr, 0, len(t.Attr))
			for _, a := range t.Attr {
				attrs = append(attrs, xmltree.Attr{Name: a.Name.Local, Value: a.Value})
			}
			if !sawRoot {
				sawRoot = true
				rootLabel, rootAttrs = label, attrs
				newShard()
				continue
			}
			if rootClosed {
				return emitted, fmt.Errorf("shard: stream: parse at byte %d: multiple root elements", dec.InputOffset())
			}
			flushText()
			if len(stack) == 1 {
				if err := maybeCut(); err != nil {
					return emitted, err
				}
			}
			n := b.Element(stack[len(stack)-1], label, attrs...)
			if err := b.Err(); err != nil {
				return emitted, fmt.Errorf("shard: stream: parse at byte %d: %w", dec.InputOffset(), err)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if !sawRoot || rootClosed {
				return emitted, fmt.Errorf("shard: stream: unbalanced end element %s", t.Name.Local)
			}
			flushText()
			if len(stack) == 1 {
				rootClosed = true
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) == 1 {
				if err := maybeCut(); err != nil {
					return emitted, err
				}
			}
		case xml.CharData:
			if sawRoot && !rootClosed {
				pending.Write(t)
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Outside the paper's data model; skipped (as in Parse).
		}
	}
	if !sawRoot {
		return emitted, fmt.Errorf("shard: stream: empty document")
	}
	if !rootClosed {
		return emitted, fmt.Errorf("shard: stream: %d unclosed element(s)", len(stack))
	}
	if err := finish(); err != nil {
		return emitted, err
	}
	return emitted, nil
}
