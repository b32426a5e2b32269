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
	w.node()
	w.depth++
	return nil
}

func (w *weigher) Text(string) error {
	w.node()
	return nil
}

func (w *weigher) End() error {
	w.depth--
	return nil
}

// node counts a node about to be added under the innermost open
// element: a child of the root starts a weight, a deeper node adds to
// the last one.
func (w *weigher) node() {
	switch {
	case w.depth == 1:
		w.weights = append(w.weights, 1)
	case w.depth > 1:
		w.weights[len(w.weights)-1]++
	}
}

// Balancer delivers a second parse of a weighed document in Split's
// shards: it is the sink to hand xmltree.ParseSplit and its Cut is the
// cut. Every event goes on to the sink it was made over, so with the
// store loader behind it a document is split by node count and no tree
// is built. ParseSplit consults a cut between two events, which is why
// counting the root's children as they pass is enough to place it.
type Balancer struct {
	xmltree.Sink
	takes []int // cuts' answer, the shard being read first
	depth int   // open elements
	kids  int   // children of the root in the shard being read
}

// Balance returns the Balancer for a document with these weights (see
// Weigh), at most k shards and the sink to deliver them to.
func Balance(weights []int, k int, sink xmltree.Sink) *Balancer {
	return &Balancer{Sink: sink, takes: cuts(weights, k)}
}

// Cut says yes once the shard being read has the children cuts gave it.
func (b *Balancer) Cut(int64) bool { return len(b.takes) > 1 && b.kids == b.takes[0] }

func (b *Balancer) Start(label string, attrs []xmltree.Attr) error {
	if b.depth == 1 {
		b.kids++
	}
	b.depth++
	return b.Sink.Start(label, attrs)
}

func (b *Balancer) Text(text string) error {
	if b.depth == 1 {
		b.kids++
	}
	return b.Sink.Text(text)
}

func (b *Balancer) End() error {
	if b.depth--; b.depth == 0 { // a shard is complete
		b.takes, b.kids = b.takes[1:], 0
	}
	return b.Sink.End()
}
