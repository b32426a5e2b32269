package shard

import (
	"io"

	"ncq/internal/xmltree"
)

// Weigh parses an XML document from r and returns what Split's policy
// reads of it — the node count of every child of the root, in document
// order — without building it. The refusals are xmltree.ParseSplit's.
func Weigh(r io.Reader) ([]int, error) {
	var w weigher
	err := xmltree.ParseSplit(r, nil, &w)
	return w.weights, err
}

// weigher is the sink that counts nodes; depth is the number of open
// elements.
type weigher struct {
	weights []int
	depth   int
}

func (w *weigher) Start(string, []xmltree.Attr) error {
	w.Text("") // counted as any node, then open
	w.depth++
	return nil
}

// Text counts a node added under the innermost open element: a child of
// the root starts a weight, a deeper node adds to the last one.
func (w *weigher) Text(string) error {
	switch {
	case w.depth == 1:
		w.weights = append(w.weights, 1)
	case w.depth > 1:
		w.weights[len(w.weights)-1]++
	}
	return nil
}

func (w *weigher) End() error {
	w.depth--
	return nil
}

// Balancer passes one document's events, walked or parsed whole, on to
// its sink in the node-count policy's shards: before a child of the
// root that the shard being read has no room for, it closes the root —
// completing the shard — and reopens it with the same label and
// attributes.
type Balancer struct {
	sink  xmltree.Sink
	takes []int // cuts' answer, the shard being read first
	depth int   // open elements
	kids  int   // children of the root in the shard being read
	label string
	attrs []xmltree.Attr // the root's, kept to reopen it with
}

// Balance returns the Balancer for a document with these weights (see
// Weigh), at most k shards and the sink to deliver them to.
func Balance(weights []int, k int, sink xmltree.Sink) *Balancer {
	return &Balancer{sink: sink, takes: cuts(weights, k)}
}

func (b *Balancer) Start(label string, attrs []xmltree.Attr) error {
	if b.depth == 0 {
		b.label, b.attrs = label, append(b.attrs[:0], attrs...)
	} else if err := b.child(); err != nil {
		return err
	}
	b.depth++
	return b.sink.Start(label, attrs)
}

func (b *Balancer) Text(text string) error {
	if err := b.child(); err != nil {
		return err
	}
	return b.sink.Text(text)
}

func (b *Balancer) End() error {
	b.depth--
	return b.sink.End()
}

// child counts a node about to open under the innermost open element
// when that is the root, cutting first if the shard is full.
func (b *Balancer) child() error {
	if b.depth != 1 {
		return nil
	}
	if b.kids == b.takes[0] && len(b.takes) > 1 {
		b.takes, b.kids = b.takes[1:], 0
		if err := b.sink.End(); err != nil {
			return err
		}
		if err := b.sink.Start(b.label, b.attrs); err != nil {
			return err
		}
	}
	b.kids++
	return nil
}
