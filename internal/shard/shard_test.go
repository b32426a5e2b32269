package shard

import (
	"math/rand"
	"testing"

	"ncq/internal/datagen"
	"ncq/internal/xmltree"
)

// nodeCount returns the number of nodes in a document.
func nodeCount(d *xmltree.Document) int { return d.Len() }

// referenceSplit is how Split made its shards before it walked the
// tree through Balance: the node-count policy's takes, each a deep copy
// of a run of the root's children under a copy of the root.
func referenceSplit(doc *xmltree.Document, k int) []*xmltree.Document {
	children := doc.Root.Children
	weights := make([]int, len(children))
	for i, c := range children {
		weights[i] = int(c.End-c.OID) + 1
	}
	var shards []*xmltree.Document
	i := 0
	for _, n := range cuts(weights, k) {
		shards = append(shards, clone(doc.Root, children[i:i+n]))
		i += n
	}
	return shards
}

// clone builds a new document with root's label and attributes whose
// children are deep copies of the given subtrees.
func clone(root *xmltree.Node, children []*xmltree.Node) *xmltree.Document {
	b := xmltree.NewBuilder(root.Label)
	if len(root.Attrs) > 0 {
		b.Root().Attrs = append([]xmltree.Attr(nil), root.Attrs...)
	}
	for _, c := range children {
		copyInto(b, b.Root(), c)
	}
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}

func copyInto(b *xmltree.Builder, parent *xmltree.Node, n *xmltree.Node) {
	if n.Kind == xmltree.CData {
		b.Text(parent, n.Text)
		return
	}
	var attrs []xmltree.Attr
	if len(n.Attrs) > 0 {
		attrs = append(attrs, n.Attrs...)
	}
	el := b.Element(parent, n.Label, attrs...)
	for _, c := range n.Children {
		copyInto(b, el, c)
	}
}

// TestSplitEqualsReference: the tree's walk through Balance into
// xmltree.Documents makes the shards the copying split made, on random,
// DBLP and multimedia trees, for every k.
func TestSplitEqualsReference(t *testing.T) {
	docs := []*xmltree.Document{
		xmltree.Fig1(),
		datagen.DBLP(datagen.DBLPConfig{Seed: 5, YearFrom: 1997, YearTo: 1999, PubsPerVenueYear: 5}),
		datagen.Multimedia(datagen.MultimediaConfig{Seed: 5, Items: 120, MaxProbeDistance: 20}),
	}
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 40; i++ {
		docs = append(docs, xmltree.Random(r, 20+i*8))
	}
	for i, doc := range docs {
		for _, k := range []int{0, 1, 2, 3, 9, MaxShards + 1} {
			got, want := Split(doc, k), referenceSplit(doc, k)
			if len(got) != len(want) {
				t.Fatalf("doc %d, k=%d: %d shards, the reference makes %d", i, k, len(got), len(want))
			}
			for j := range want {
				if err := got[j].Validate(); err != nil || !xmltree.Equal(got[j], want[j]) {
					t.Fatalf("doc %d, k=%d, shard %d (%v):\n got %s\nwant %s", i, k, j, err, got[j].XMLString(), want[j].XMLString())
				}
			}
		}
	}
}

func TestSplitSingleShardIsCopy(t *testing.T) {
	doc := xmltree.Fig1()
	for _, k := range []int{0, 1} {
		shards := Split(doc, k)
		if len(shards) != 1 {
			t.Fatalf("Split(k=%d) = %d shards, want 1", k, len(shards))
		}
		if !xmltree.Equal(doc, shards[0]) {
			t.Errorf("k=%d: single shard differs from source", k)
		}
		if shards[0].Root == doc.Root {
			t.Error("shard shares nodes with the source document")
		}
	}
}

func TestSplitRootWithOneChild(t *testing.T) {
	doc := xmltree.Fig1() // root "bibliography" has one child "institute"
	shards := Split(doc, 4)
	if len(shards) != 1 {
		t.Fatalf("one top-level child split into %d shards", len(shards))
	}
	if !xmltree.Equal(doc, shards[0]) {
		t.Error("shard differs from source")
	}
}

// TestSplitPartition checks the core contract: every top-level child
// lands in exactly one shard, in document order, under the original
// root label and attributes.
func TestSplitPartition(t *testing.T) {
	doc := xmltree.MustDocument("lib", func(b *xmltree.Builder) {
		b.Root().Attrs = []xmltree.Attr{{Name: "v", Value: "1"}}
		for i := 0; i < 10; i++ {
			rec := b.Element(b.Root(), "rec")
			b.Text(b.Element(rec, "t"), "x")
		}
	})
	shards := Split(doc, 3)
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	total := 0
	for _, s := range shards {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid shard: %v", err)
		}
		if s.Root.Label != "lib" {
			t.Errorf("shard root label %q", s.Root.Label)
		}
		if v, ok := s.Root.Attr("v"); !ok || v != "1" {
			t.Errorf("shard root lost attributes")
		}
		total += len(s.Root.Children)
	}
	if total != 10 {
		t.Errorf("shards hold %d top-level children, want 10", total)
	}
}

// TestSplitBalance: on a uniform document the node counts of the
// shards must be close to equal.
func TestSplitBalance(t *testing.T) {
	doc := xmltree.MustDocument("lib", func(b *xmltree.Builder) {
		for i := 0; i < 64; i++ {
			rec := b.Element(b.Root(), "rec")
			b.Text(b.Element(rec, "t"), "x")
		}
	})
	shards := Split(doc, 4)
	if len(shards) != 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	min, max := doc.Len(), 0
	for _, s := range shards {
		if n := nodeCount(s); true {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
	}
	if max > min*2 {
		t.Errorf("unbalanced shards: min %d, max %d nodes", min, max)
	}
}

// TestSplitOversizedChild: a single huge subtree becomes its own shard
// instead of dragging its neighbours along.
func TestSplitOversizedChild(t *testing.T) {
	doc := xmltree.MustDocument("lib", func(b *xmltree.Builder) {
		big := b.Element(b.Root(), "big")
		for i := 0; i < 100; i++ {
			b.Text(b.Element(big, "e"), "x")
		}
		for i := 0; i < 6; i++ {
			b.Text(b.Element(b.Root(), "small"), "y")
		}
	})
	shards := Split(doc, 3)
	if len(shards) < 2 {
		t.Fatalf("got %d shards", len(shards))
	}
	if got := shards[0].Root.Children[0].Label; got != "big" {
		t.Fatalf("first shard starts with %q", got)
	}
	if n := len(shards[0].Root.Children); n != 1 {
		t.Errorf("oversized child shares its shard with %d siblings", n-1)
	}
}

// TestSplitReassembles: concatenating the shards' children in order
// reproduces the original document.
func TestSplitReassembles(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		doc := xmltree.Random(r, 300)
		k := 1 + r.Intn(6)
		shards := Split(doc, k)
		if len(shards) > k || len(shards) == 0 {
			t.Fatalf("Split(k=%d) = %d shards", k, len(shards))
		}
		b := xmltree.NewBuilder(doc.Root.Label)
		for _, s := range shards {
			if err := s.Validate(); err != nil {
				t.Fatalf("invalid shard: %v", err)
			}
			for _, c := range s.Root.Children {
				copyInto(b, b.Root(), c)
			}
		}
		merged, err := b.Done()
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(doc, merged) {
			t.Fatalf("trial %d (k=%d): reassembled shards differ from source", trial, k)
		}
	}
}

func TestSplitCapsShardCount(t *testing.T) {
	doc := xmltree.MustDocument("lib", func(b *xmltree.Builder) {
		for i := 0; i < 2*MaxShards; i++ {
			b.Element(b.Root(), "rec")
		}
	})
	if n := len(Split(doc, 10*MaxShards)); n != MaxShards {
		t.Errorf("got %d shards, want the %d cap", n, MaxShards)
	}
}
