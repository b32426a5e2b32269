package monetx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/xmltree"
)

// fig1Dump is the whole Monet transform of Figure 1 as DumpTransform
// prints it: the relations of the paper's Figure 2, one line each, in
// the order the summary interns their paths.
const fig1Dump = `/bibliography = {⟨root,o1⟩}
/bibliography/institute = {⟨o1,o2⟩}
/bibliography/institute/article = {⟨o2,o3⟩, ⟨o2,o13⟩}
/bibliography/institute/article@key = {⟨o3,"BB99"⟩, ⟨o13,"BK99"⟩}
/bibliography/institute/article/author = {⟨o3,o4⟩, ⟨o13,o14⟩}
/bibliography/institute/article/author/firstname = {⟨o4,o5⟩}
/bibliography/institute/article/author/firstname/cdata = {⟨o5,o6⟩}
/bibliography/institute/article/author/firstname/cdata@string = {⟨o6,"Ben"⟩}
/bibliography/institute/article/author/lastname = {⟨o4,o7⟩}
/bibliography/institute/article/author/lastname/cdata = {⟨o7,o8⟩}
/bibliography/institute/article/author/lastname/cdata@string = {⟨o8,"Bit"⟩}
/bibliography/institute/article/title = {⟨o3,o9⟩, ⟨o13,o16⟩}
/bibliography/institute/article/title/cdata = {⟨o9,o10⟩, ⟨o16,o17⟩}
/bibliography/institute/article/title/cdata@string = {⟨o10,"How to Hack"⟩, ⟨o17,"Hacking & RSI"⟩}
/bibliography/institute/article/year = {⟨o3,o11⟩, ⟨o13,o18⟩}
/bibliography/institute/article/year/cdata = {⟨o11,o12⟩, ⟨o18,o19⟩}
/bibliography/institute/article/year/cdata@string = {⟨o12,"1999"⟩, ⟨o19,"1999"⟩}
/bibliography/institute/article/author/cdata = {⟨o14,o15⟩}
/bibliography/institute/article/author/cdata@string = {⟨o15,"Bob Byte"⟩}
`

func TestDumpTransformFig1(t *testing.T) {
	s := fig1Store(t)
	var sb strings.Builder
	if err := s.DumpTransform(&sb, 0); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != fig1Dump {
		t.Errorf("dump of Figure 1:\n%s\nwant\n%s", got, fig1Dump)
	}
}

func TestDumpTransformLimit(t *testing.T) {
	s := fig1Store(t)
	var sb strings.Builder
	if err := s.DumpTransform(&sb, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "… (1 more)") {
		t.Errorf("limit not applied:\n%s", sb.String())
	}
}

func TestPathInfos(t *testing.T) {
	s := fig1Store(t)
	infos := s.PathInfos()
	if len(infos) != s.Summary().Len() {
		t.Fatalf("infos = %d, want %d", len(infos), s.Summary().Len())
	}
	byPath := map[string]PathInfo{}
	total := 0
	for _, pi := range infos {
		byPath[pi.Path] = pi
		if !pi.Attr {
			total += pi.Count
		}
	}
	if total != s.Len() {
		t.Errorf("element counts sum to %d, want %d", total, s.Len())
	}
	art := byPath["/bibliography/institute/article"]
	if art.Count != 2 || art.Attr {
		t.Errorf("article info = %+v", art)
	}
	key := byPath["/bibliography/institute/article@key"]
	if key.Count != 2 || !key.Attr {
		t.Errorf("key info = %+v", key)
	}
}

// treeDump prints the Monet transform of d from the tree itself, in the
// format DumpTransform writes: a relation per path in the order a
// preorder walk first meets it — an element's path, then its
// attributes' in the order written; a cdata node's path, then its
// string's — each relation's pairs in document order, at most limit of
// them when limit > 0.
func treeDump(d *xmltree.Document, limit int) string {
	var order []string
	pairs := map[string][]string{}
	add := func(path, pair string) {
		if _, ok := pairs[path]; !ok {
			order = append(order, path)
		}
		pairs[path] = append(pairs[path], pair)
	}
	for o := bat.OID(1); int(o) <= d.Len(); o++ {
		n := d.Node(o)
		path := n.PathString()
		if n.Parent == nil {
			add(path, fmt.Sprintf("⟨root,o%d⟩", o))
		} else {
			add(path, fmt.Sprintf("⟨o%d,o%d⟩", n.Parent.OID, o))
		}
		if n.Kind == xmltree.CData {
			add(path+"@"+StringAttr, fmt.Sprintf("⟨o%d,%q⟩", o, n.Text))
		}
		for _, a := range n.Attrs {
			add(path+"@"+a.Name, fmt.Sprintf("⟨o%d,%q⟩", o, a.Value))
		}
	}
	var b strings.Builder
	for _, path := range order {
		rel := pairs[path]
		if limit > 0 && len(rel) > limit {
			rel = append(rel[:limit:limit], fmt.Sprintf("… (%d more)", len(rel)-limit))
		}
		fmt.Fprintf(&b, "%s = {%s}\n", path, strings.Join(rel, ", "))
	}
	return b.String()
}

// FuzzDumpEqualsTree holds DumpTransform of a random document's store
// to the relations read off the document's tree: every element path's
// edges, every attribute path's strings, in document order, under every
// small limit.
func FuzzDumpEqualsTree(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(60), int8(seed%3))
	}
	f.Add(int64(0), uint8(1), int8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, limit int8) {
		d := xmltree.Random(rand.New(rand.NewSource(seed)), int(size)+1)
		s, err := Load(d)
		if err != nil {
			t.Fatal(err)
		}
		lim := int(limit) % 4
		var got strings.Builder
		if err := s.DumpTransform(&got, lim); err != nil {
			t.Fatal(err)
		}
		if want := treeDump(d, lim); got.String() != want {
			t.Fatalf("seed %d, size %d, limit %d: the store dumps\n%s\nthe tree\n%s", seed, size, lim, got.String(), want)
		}
	})
}
