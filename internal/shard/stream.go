package shard

import (
	"io"

	"ncq/internal/xmltree"
)

// SplitStream parses an XML document from r and splits it into at most
// k shards as the parse streams, emitting each completed shard before
// the next one is built: at most one shard's tree is in memory at a
// time, so a multi-gigabyte upload costs one shard of memory, not the
// whole document.
//
// It is xmltree.ParseSplit — Parse's own token loop, so the same
// accepted language and the same refusals — under a byte-budget policy:
// where Split balances node counts it cannot know before the parse
// ends, a shard here is cut at the first top-level boundary at which it
// spans at least budget bytes of input, and the k-th shard takes
// everything remaining. emit receives the shards in document order; a
// non-nil error from it aborts the parse.
//
// SplitStream returns the number of shards emitted. Answer equivalence
// matches Split: with ExcludeRoot set, the union of per-shard answers
// equals the unsharded document's answers.
func SplitStream(r io.Reader, budget int64, k int, emit func(*xmltree.Document) error) (int, error) {
	emitted := 0
	err := xmltree.ParseSplit(r, StreamCut(budget, k), xmltree.Documents(func(d *xmltree.Document) error {
		emitted++
		return emit(d)
	}))
	return emitted, err
}

// StreamCut is SplitStream's policy on its own, for xmltree.ParseSplit
// into any sink — ncq.OpenSharded's is the store loader, so a streamed
// upload builds no trees: cut at the first top-level boundary at which
// the part spans at least budget bytes, at most k-1 times.
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
