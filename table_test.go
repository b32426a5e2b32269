package ncq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
	"ncq/internal/shard"
	"ncq/internal/xmltree"
)

// wideElements is a root with two elements of n attributes each: the
// first writes them x0 … x(n-1), which gives their paths out in that
// order, and the second in the same order or, reversed, the opposite
// one.
func wideElements(n int, reversed bool) string {
	var b strings.Builder
	b.WriteString("<r><a")
	for i := range n {
		fmt.Fprintf(&b, ` x%d="v%d"`, i, i)
	}
	b.WriteString("/><a")
	for i := range n {
		if reversed {
			i = n - 1 - i
		}
		fmt.Fprintf(&b, ` x%d="w%d"`, i, i)
	}
	b.WriteString("/></r>")
	return b.String()
}

// writeSorted writes the subtree of n into w as the store's walk does:
// each element's attributes stably sorted by name.
func writeSorted(w *xmltree.Writer, n *xmltree.Node) {
	if n.Kind == xmltree.CData {
		w.Text([]byte(n.Text))
		return
	}
	attrs := slices.Clone(n.Attrs)
	slices.SortStableFunc(attrs, func(a, b xmltree.Attr) int { return strings.Compare(a.Name, b.Name) })
	w.Start(n.Label, attrs)
	for _, c := range n.Children {
		writeSorted(w, c)
	}
	w.End()
}

// checkTable holds a store to the tree it was loaded from, through
// everything that reads its association table: Text and AttrValue of
// every node under every attribute label the summary knows, the table's
// rows at each attribute path against the relation gathered from the
// tree, PathInfos' count at every path against the tree's, and Emit of
// every element against the tree's subtree printed by the same writer.
// The table's rows must ascend strictly by (owner, path), and its values
// must be distinct.
func checkTable(t *testing.T, label string, s *monetx.Store, d *xmltree.Document) {
	t.Helper()
	if s.Len() != d.Len() {
		t.Fatalf("%s: %d nodes, the tree has %d", label, s.Len(), d.Len())
	}
	owners, paths, vals, values := s.Table()
	for r := 1; r < len(owners); r++ {
		if owners[r-1] > owners[r] || owners[r-1] == owners[r] && paths[r-1] >= paths[r] {
			t.Fatalf("%s: rows %d and %d are (%d, %d) then (%d, %d)", label, r-1, r, owners[r-1], paths[r-1], owners[r], paths[r])
		}
	}
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		if seen[v] {
			t.Fatalf("%s: value %q is in the table twice", label, v)
		}
		seen[v] = true
	}

	sum := s.Summary()
	names := []string{"absent"}
	for _, p := range sum.AllPaths() {
		if sum.Kind(p) == pathsum.Attr {
			names = append(names, sum.Label(p))
		}
	}
	type pair struct {
		owner bat.OID
		value string
	}
	want := make(map[string][]pair) // rendered attribute path -> its relation, gathered from the tree
	for o := bat.OID(1); int(o) <= d.Len(); o++ {
		n := d.Node(o)
		text, ok := s.Text(o)
		if n.Kind == xmltree.CData {
			if !ok || text != n.Text {
				t.Fatalf("%s: Text(%d) = %q, %t; the tree has %q", label, o, text, ok, n.Text)
			}
			p := n.PathString() + "@" + monetx.StringAttr
			want[p] = append(want[p], pair{o, n.Text})
			continue
		}
		if ok {
			t.Fatalf("%s: Text(%d) of an element = %q", label, o, text)
		}
		for _, name := range names {
			got, gotOK := s.AttrValue(o, name)
			if v, ok := n.Attr(name); got != v || gotOK != ok {
				t.Fatalf("%s: AttrValue(%d, %q) = %q, %t; the tree has %q, %t", label, o, name, got, gotOK, v, ok)
			}
		}
		for _, a := range n.Attrs {
			p := n.PathString() + "@" + a.Name
			want[p] = append(want[p], pair{o, a.Value})
		}
	}
	rows := make(map[pathsum.PathID][]pair) // attribute path -> the table's rows there, in owner order
	for r, p := range paths {
		rows[p] = append(rows[p], pair{owners[r], values[vals[r]]})
	}
	relations := 0
	for _, p := range sum.AllPaths() {
		rel := rows[p]
		if rel == nil {
			continue
		}
		relations++
		ref := want[sum.String(p)]
		if len(rel) != len(ref) {
			t.Fatalf("%s: %s has %d pairs, the tree %d", label, sum.String(p), len(rel), len(ref))
		}
		for i, w := range ref {
			if rel[i] != w {
				t.Fatalf("%s: %s pair %d is (%d, %q), the tree's (%d, %q)", label, sum.String(p), i, rel[i].owner, rel[i].value, w.owner, w.value)
			}
		}
	}
	if relations != len(want) {
		t.Fatalf("%s: %d string relations, the tree has %d", label, relations, len(want))
	}
	counts := make(map[string]int) // rendered path -> its nodes or strings in the tree
	for o := bat.OID(1); int(o) <= d.Len(); o++ {
		counts[d.Node(o).PathString()]++
	}
	for p, rel := range want {
		counts[p] = len(rel)
	}
	infos := s.PathInfos()
	if len(infos) != sum.Len() {
		t.Fatalf("%s: PathInfos lists %d paths, the summary has %d", label, len(infos), sum.Len())
	}
	for i, pi := range infos {
		p := pathsum.PathID(i)
		if pi.Path != sum.String(p) || pi.Attr != (sum.Kind(p) == pathsum.Attr) || pi.Count != counts[pi.Path] {
			t.Fatalf("%s: PathInfos[%d] = %+v; the tree has %d at %s", label, i, pi, counts[sum.String(p)], sum.String(p))
		}
	}

	for o := bat.OID(1); int(o) <= d.Len(); o++ {
		if n := d.Node(o); n.Kind == xmltree.Element {
			var got, ref bytes.Buffer
			if err := s.Emit(o, xmltree.NewWriter(&got, false)); err != nil {
				t.Fatal(err)
			}
			writeSorted(xmltree.NewWriter(&ref, false), n) // its root's End flushes
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Fatalf("%s: Emit(%d) prints\n%s\nthe tree\n%s", label, o, got.Bytes(), ref.Bytes())
			}
		}
	}
}

// TestTableServesTheTree is the differential of the association table
// against the tree each document parses to, through every door a store
// comes out of: the indexing parse an upload takes, Load of the tree, a
// snapshot restored through the indexing loader and replayed into a
// plain one, and a three-way split parse, each part against its own
// tree. Every door gives one document the same Stats. The documents are
// random trees, elements writing random subsets of attributes against
// name order, and two elements of many attributes, in path order and
// against it.
func TestTableServesTheTree(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	var srcs []string
	for range 200 {
		srcs = append(srcs, xmltree.Random(r, 80).XMLString())
	}
	for range 20 {
		srcs = append(srcs, shuffledAttrs(r, 40))
	}
	srcs = append(srcs, wideElements(300, false), wideElements(300, true))
	split := 0
	for i, src := range srcs {
		d, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := OpenString(src)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := monetx.Load(d)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := parsed.SaveSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		restored, err := OpenSnapshot(context.Background(), bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := monetx.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for door, s := range map[string]*monetx.Store{"parse": parsed.store, "load": loaded, "restore": restored.store, "replay": replayed} {
			label := fmt.Sprintf("document %d, %s", i, door)
			checkTable(t, label, s, d)
			if s.Stats() != loaded.Stats() {
				t.Fatalf("%s: Stats %+v, Load's %+v", label, s.Stats(), loaded.Stats())
			}
		}

		cut := func() func(int64) bool { return shard.StreamCut(int64(len(src)/3), 3) }
		var trees []*xmltree.Document
		if err := xmltree.ParseSplit(strings.NewReader(src), cut(), xmltree.Documents(func(d *xmltree.Document) error { trees = append(trees, d); return nil })); err != nil {
			t.Fatal(err)
		}
		parts, err := openParts(strings.NewReader(src), cut())
		if err != nil || len(parts) != len(trees) {
			t.Fatalf("document %d: %d parts, %d trees, err %v", i, len(parts), len(trees), err)
		}
		for p, db := range parts {
			label := fmt.Sprintf("document %d, part %d of %d", i, p, len(parts))
			checkTable(t, label, db.store, trees[p])
			if ref, err := monetx.Load(trees[p]); err != nil || db.store.Stats() != ref.Stats() {
				t.Fatalf("%s: Stats %+v, Load's %+v (%v)", label, db.store.Stats(), ref.Stats(), err)
			}
		}
		if len(parts) > 1 {
			split++
		}
	}
	if split < len(srcs)/4 {
		t.Errorf("the cut split %d of %d documents", split, len(srcs))
	}
}
