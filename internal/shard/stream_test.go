package shard

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// splitStream is the streamed door's split into trees: the parse under
// StreamCut into xmltree.Documents. It returns the number of parts
// completed.
func splitStream(r io.Reader, budget int64, k int, emit func(*xmltree.Document) error) (int, error) {
	emitted := 0
	err := xmltree.ParseSplit(r, StreamCut(budget, k), xmltree.Documents(func(d *xmltree.Document) error {
		emitted++
		return emit(d)
	}))
	return emitted, err
}

func collectStream(t *testing.T, src string, budget int64, k int) []*xmltree.Document {
	t.Helper()
	var out []*xmltree.Document
	n, err := splitStream(strings.NewReader(src), budget, k, func(d *xmltree.Document) error {
		out = append(out, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("splitStream reported %d shards, emitted %d", n, len(out))
	}
	return out
}

// mergeShards concatenates the shards' top-level children back into
// one document under the shared root.
func mergeShards(t *testing.T, shards []*xmltree.Document) *xmltree.Document {
	t.Helper()
	root := shards[0].Root
	b := xmltree.NewBuilder(root.Label)
	if len(root.Attrs) > 0 {
		b.Root().Attrs = append([]xmltree.Attr(nil), root.Attrs...)
	}
	for _, s := range shards {
		for _, c := range s.Root.Children {
			copyInto(b, b.Root(), c)
		}
	}
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSplitStreamSingleShardEqualsParse(t *testing.T) {
	src := `<bib year="2001"><book><title>A</title></book>  <book><title>B</title></book>some text</bib>`
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	shards := collectStream(t, src, 1<<40, MaxShards)
	if len(shards) != 1 {
		t.Fatalf("huge budget produced %d shards", len(shards))
	}
	if !xmltree.Equal(doc, shards[0]) {
		t.Errorf("single-shard stream differs from Parse:\n%s\nvs\n%s", doc.XMLString(), shards[0].XMLString())
	}
}

func TestSplitStreamReassembles(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 20; i++ {
		doc := xmltree.Random(r, 120)
		src := doc.XMLString()
		parsed, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{1, 64, 512} {
			shards := collectStream(t, src, budget, MaxShards)
			if len(shards) > MaxShards {
				t.Fatalf("doc %d: %d shards exceeds cap", i, len(shards))
			}
			merged := mergeShards(t, shards)
			if !xmltree.Equal(parsed, merged) {
				t.Fatalf("doc %d budget %d: shards do not reassemble to the document", i, budget)
			}
			for j, s := range shards {
				if s.Root.Label != parsed.Root.Label {
					t.Fatalf("doc %d shard %d: root label %q", i, j, s.Root.Label)
				}
			}
		}
	}
}

func TestSplitStreamHonoursCap(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 100; i++ {
		sb.WriteString("<c><d>payload payload payload</d></c>")
	}
	sb.WriteString("</r>")
	src := sb.String()
	// budget 1: every top-level boundary wants a cut, but the cap wins.
	for _, k := range []int{1, 2, 5} {
		shards := collectStream(t, src, 1, k)
		if len(shards) != k {
			t.Errorf("k=%d: got %d shards", k, len(shards))
		}
		merged := mergeShards(t, shards)
		if got := len(merged.Root.Children); got != 100 {
			t.Errorf("k=%d: merged children = %d", k, got)
		}
	}
	// A generous budget cuts fewer shards than the cap allows.
	shards := collectStream(t, src, int64(len(src)/2), MaxShards)
	if len(shards) > 3 {
		t.Errorf("byte budget ignored: %d shards", len(shards))
	}
}

func TestSplitStreamAgreesWithSplitOnAnswers(t *testing.T) {
	// The equivalence contract: under ExcludeRoot, sharding must not
	// change which subtrees exist — stream shards hold exactly the same
	// node population as Split shards (possibly partitioned elsewhere).
	r := rand.New(rand.NewSource(31))
	doc := xmltree.Random(r, 200)
	src := doc.XMLString()
	parsed, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	streamed := collectStream(t, src, 128, 8)
	split := Split(parsed, 8)
	count := func(shards []*xmltree.Document) int {
		n := 0
		for _, s := range shards {
			n += s.Len() - 1 // all nodes except the replicated root
		}
		return n
	}
	if count(streamed) != count(split) {
		t.Errorf("node population differs: stream %d vs split %d", count(streamed), count(split))
	}
}

func TestSplitStreamErrors(t *testing.T) {
	emit := func(*xmltree.Document) error { return nil }
	if _, err := splitStream(strings.NewReader(""), 1, 4, emit); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := splitStream(strings.NewReader("<a><b></a>"), 1, 4, emit); err == nil {
		t.Error("mismatched tags accepted")
	}
	if _, err := splitStream(strings.NewReader("<a></a><b></b>"), 1, 4, emit); err == nil {
		t.Error("multiple roots accepted")
	}
	if _, err := splitStream(strings.NewReader("<a><cdata/></a>"), 1, 4, emit); err == nil {
		t.Error("reserved label accepted")
	}
	if _, err := splitStream(strings.NewReader("<a><b/>"), 1, 4, emit); err == nil {
		t.Error("unclosed root accepted")
	}
	// An emit error aborts the stream.
	calls := 0
	_, err := splitStream(strings.NewReader("<a><b/><c/><d/></a>"), 1, 4, func(*xmltree.Document) error {
		calls++
		return errStop
	})
	if err != errStop || calls != 1 {
		t.Errorf("emit abort: err=%v calls=%d", err, calls)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

// TestSplitStreamDepthLimit: the streamed split is Parse's own loop, so
// it refuses the same nesting at the same start tag, before emitting
// anything.
func TestSplitStreamDepthLimit(t *testing.T) {
	emitted := 0
	emit := func(*xmltree.Document) error { emitted++; return nil }
	const max = pathsum.MaxDepth
	deep := strings.Repeat("<n>", max) + strings.Repeat("</n>", max)
	if _, err := splitStream(strings.NewReader(deep), 1, 4, emit); err != nil || emitted == 0 {
		t.Fatalf("%d levels: err = %v, %d shard(s) emitted", max, err, emitted)
	}
	emitted = 0
	_, err := splitStream(strings.NewReader(strings.Repeat("<n>", max+1)+"<<<"), 1, 4, emit)
	if err == nil || !strings.Contains(err.Error(), "nests deeper than 4096 levels") || emitted != 0 {
		t.Errorf("%d levels: err = %v, %d shard(s) emitted", max+1, err, emitted)
	}
}
