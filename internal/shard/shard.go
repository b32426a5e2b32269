// Package shard splits one large XML document into several smaller
// ones so that a nearest concept query — whose cost is dominated by
// the per-document full-text scan (Figure 6 of the paper) — can fan
// out over the shards in parallel instead of serialising behind one
// tree.
//
// The split happens at the top-level children of the root: each shard
// is a new document with the same root element (label and attributes
// preserved) holding a contiguous run of the original root's children.
// Splitting anywhere deeper would move nodes away from their ancestor
// chain and change meet results; at the top level the only concepts a
// shard cannot represent are meets at the document root itself, which
// large-corpus queries exclude anyway (the paper's ExcludeRoot, used
// throughout its DBLP case study). Contiguity preserves document order
// inside every shard, so per-shard answers and OIDs stay meaningful.
//
// Two policies place the cuts. By node count, a greedy contiguous
// partition (cuts): each shard takes children until it reaches its fair
// share of the nodes still unassigned, so a single oversized subtree
// becomes a shard of its own rather than dragging neighbours along.
// Whatever the input, it is one composition: the children's weights (a
// tree's intervals, or Weigh's counting parse) go to Balance, a sink
// fed by a tree's walk or a second parse that cuts the events into
// shards for any sink — xmltree.Documents, or the store loader. By
// bytes, StreamCut cuts while the one parse is still running, for
// bodies too large — or of unknown size — to hold whole. Which one a
// given input gets is not decided here: ncq.OpenSharded picks, from the
// input's size alone.
package shard

import (
	"ncq/internal/xmltree"
)

// MaxShards bounds how many shards one document may be split into;
// beyond this the per-shard bookkeeping outweighs any fan-out win.
const MaxShards = 64

// Split partitions doc into at most k shards at the top-level children
// of the root. It returns freshly built documents — doc itself is
// never modified, and the shards share no nodes with it. The result
// has fewer than k shards when the root has fewer than k children; a
// document whose root has at most one child (or k <= 1) yields a
// single shard that is a structural copy of doc.
func Split(doc *xmltree.Document, k int) []*xmltree.Document {
	var shards []*xmltree.Document
	err := SplitInto(doc, k, xmltree.Documents(func(d *xmltree.Document) error {
		shards = append(shards, d)
		return nil
	}))
	if err != nil {
		panic(err) // a tree Builder.Done numbered walks and rebuilds cleanly
	}
	return shards
}

// SplitInto walks doc into sink as Split's shards, one completed root
// per shard, and returns the first error of the walk or the sink.
func SplitInto(doc *xmltree.Document, k int, sink xmltree.Sink) error {
	// Subtree weights from the preorder intervals: O(1) per child.
	weights := make([]int, len(doc.Root.Children))
	for i, c := range doc.Root.Children {
		weights[i] = int(c.End-c.OID) + 1
	}
	return doc.Emit(Balance(weights, k, sink))
}

// cuts is Split's policy on the weights alone: given the node count of
// every child of the root, how many consecutive children each of the at
// most k shards takes. The counts are positive and sum to len(weights),
// except that a root with no children yields the one count 0.
func cuts(weights []int, k int) []int {
	if k > MaxShards {
		k = MaxShards
	}
	if k <= 1 || len(weights) <= 1 {
		return []int{len(weights)}
	}
	if k > len(weights) {
		k = len(weights)
	}
	remaining := 0
	for _, w := range weights {
		remaining += w
	}
	var takes []int
	i := 0
	for j := 0; j < k && i < len(weights); j++ {
		left := k - j // shards still to fill, this one included
		target := (remaining + left - 1) / left
		load := weights[i]
		start := i
		i++
		// Keep taking children while staying within the fair share,
		// but always leave at least one child per remaining shard.
		for i < len(weights)-(left-1) && load+weights[i] <= target {
			load += weights[i]
			i++
		}
		if j == k-1 { // the last shard takes everything left
			i = len(weights)
		}
		remaining -= load
		takes = append(takes, i-start)
	}
	return takes
}

// StreamCut is the byte-budget policy, the cut of xmltree.ParseSplit
// into any sink (ncq.OpenSharded's is the store loader): cut while the
// parse streams, at the first top-level boundary at which the part
// spans at least budget bytes, at most k-1 times, so the body is never
// held whole. With ExcludeRoot set, the union of per-part answers
// equals the unsharded document's answers, as it does for Split.
func StreamCut(budget int64, k int) func(span int64) bool {
	if k > MaxShards {
		k = MaxShards
	}
	cuts := 0
	return func(span int64) bool {
		if cuts >= k-1 || span < budget {
			return false
		}
		cuts++
		return true
	}
}
