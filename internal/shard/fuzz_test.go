package shard

import (
	"strings"
	"testing"

	"ncq/internal/xmltree"
)

// FuzzSplitStream drives the shared token loop where it cuts — the path
// an untrusted PUT ?shards=K body takes and FuzzParse never reaches:
// xmltree.ParseSplit under StreamCut into xmltree.Documents. Whatever
// the bytes, budget and k: no panic; the input is accepted exactly when
// xmltree.Parse accepts it; at most k shards come out, none empty unless
// it is the only one, each under the document's root label and
// attributes; and the shards' top-level children, concatenated,
// serialise to exactly Parse's.
func FuzzSplitStream(f *testing.F) {
	for _, s := range []string{
		"<a/>",
		`<a x="1" y="2">t<b/>u<c>v</c>w<d/><e/>z</a>`,
		"<r><c><d>payload</d></c><c><d>payload</d></c><c/></r>",
		"<a><!-- c --><?pi?><b/> <b/></a>trailing",
		"<a><b></a>",
		"<a></a><b></b>",
		"<a><cdata/></a>",
		"<a><b/>",
		"",
		"<a>\xff\xfe<b/></a>",
		strings.Repeat("<n>", 50) + "x" + strings.Repeat("</n>", 50),
	} {
		f.Add(s, int64(1), 4)
		f.Add(s, int64(16), 64)
	}
	f.Fuzz(func(t *testing.T, in string, budget int64, k int) {
		var shards []*xmltree.Document
		n, err := splitStream(strings.NewReader(in), budget, k, func(d *xmltree.Document) error {
			shards = append(shards, d)
			return nil
		})
		doc, perr := xmltree.ParseString(in)
		if (err == nil) != (perr == nil) {
			t.Fatalf("split err = %v, Parse err = %v\ninput: %q", err, perr, in)
		}
		if err != nil {
			return
		}
		limit := min(max(k, 1), MaxShards)
		if n != len(shards) || n < 1 || n > limit {
			t.Fatalf("reported %d shards, emitted %d, limit %d\ninput: %q", n, len(shards), limit, in)
		}
		// open is the document's root start tag, inner its serialised
		// top-level children.
		open := func(d *xmltree.Document) string {
			var sb strings.Builder
			w := xmltree.NewWriter(&sb, false)
			w.Start(d.Root.Label, d.Root.Attrs)
			w.End()
			return strings.TrimSuffix(sb.String(), "/>") + ">"
		}
		inner := func(d *xmltree.Document) string {
			if len(d.Root.Children) == 0 {
				return ""
			}
			return strings.TrimSuffix(strings.TrimPrefix(d.XMLString(), open(d)), "</"+d.Root.Label+">")
		}
		var got strings.Builder
		children := 0
		for i, s := range shards {
			if err := s.Validate(); err != nil {
				t.Fatalf("shard %d is invalid: %v\ninput: %q", i, err, in)
			}
			if len(s.Root.Children) == 0 && n > 1 {
				t.Fatalf("shard %d of %d is empty\ninput: %q", i, n, in)
			}
			if open(s) != open(doc) {
				t.Fatalf("shard %d opens with %s, the document with %s\ninput: %q", i, open(s), open(doc), in)
			}
			children += len(s.Root.Children)
			got.WriteString(inner(s))
		}
		if children != len(doc.Root.Children) || got.String() != inner(doc) {
			t.Fatalf("shards do not concatenate to the document\ninput: %q\ngot:  %s\nwant: %s", in, got.String(), inner(doc))
		}
	})
}
