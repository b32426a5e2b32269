package monetx

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/xmltree"
)

// refObject, reassemble and reassembleSubtree are how a subtree was
// printed before Store.Emit: gather a node's associations into a flat
// record, rebuild the subtree as a tree through the builder, serialise
// the tree. They are kept as the reference Emit's walk is held to.
type refObject struct {
	Label    string
	Attrs    []xmltree.Attr // sorted by name
	Text     string
	IsCData  bool
	Children []bat.OID
}

func reassemble(s *Store, o bat.OID) (*refObject, error) {
	if !s.ValidOID(o) {
		return nil, fmt.Errorf("monetx: reassemble: invalid OID %d", o)
	}
	pid := s.pathOf[o]
	obj := &refObject{Label: s.summary.Label(pid), Children: s.Children(o)}
	if obj.Label == xmltree.CDataLabel {
		obj.IsCData = true
		obj.Text, _ = s.Text(o)
		return obj, nil
	}
	first, _ := slices.BinarySearch(s.owners, o)
	for _, apid := range s.summary.AttrPaths(pid) {
		for r := first; r < len(s.owners) && s.owners[r] == o; r++ {
			if s.paths[r] == apid {
				obj.Attrs = append(obj.Attrs, xmltree.Attr{Name: s.summary.Label(apid), Value: s.values[s.vals[r]]})
				break
			}
		}
	}
	sort.Slice(obj.Attrs, func(i, j int) bool { return obj.Attrs[i].Name < obj.Attrs[j].Name })
	return obj, nil
}

func reassembleSubtree(s *Store, o bat.OID) (*xmltree.Document, error) {
	rootObj, err := reassemble(s, o)
	if err != nil {
		return nil, err
	}
	if rootObj.IsCData {
		return nil, fmt.Errorf("monetx: reassemble subtree: OID %d is character data, not an element", o)
	}
	b := xmltree.NewBuilder(rootObj.Label)
	b.Root().Attrs = rootObj.Attrs
	var rec func(parent *xmltree.Node, children []bat.OID) error
	rec = func(parent *xmltree.Node, children []bat.OID) error {
		for _, c := range children {
			obj, err := reassemble(s, c)
			if err != nil {
				return err
			}
			if obj.IsCData {
				b.Text(parent, obj.Text)
				continue
			}
			n := b.Element(parent, obj.Label, obj.Attrs...)
			if err := rec(n, obj.Children); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(b.Root(), rootObj.Children); err != nil {
		return nil, err
	}
	return b.Done()
}

// rebuild is Store.Emit of o into xmltree.Documents: the tree the
// relations alone describe.
func rebuild(s *Store, o bat.OID) (*xmltree.Document, error) {
	var doc *xmltree.Document
	err := s.Emit(o, xmltree.Documents(func(d *xmltree.Document) error { doc = d; return nil }))
	return doc, err
}

// render is Store.Emit of o into the writer.
func render(s *Store, o bat.OID, indent bool) (string, error) {
	var sb strings.Builder
	err := s.Emit(o, xmltree.NewWriter(&sb, indent))
	return sb.String(), err
}

// TestEmitRendersReassembly: every element of every corpus document
// prints byte for byte what the reassembled tree printed, compact and
// indented.
func TestEmitRendersReassembly(t *testing.T) {
	for i, doc := range corpusDocs() {
		s, err := Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		for o := bat.OID(1); int(o) <= s.Len(); o++ {
			if s.Label(o) == xmltree.CDataLabel {
				continue
			}
			ref, err := reassembleSubtree(s, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, indent := range []bool{false, true} {
				var want strings.Builder
				if err := ref.WriteXML(&want, indent); err != nil {
					t.Fatal(err)
				}
				if got, err := render(s, o, indent); err != nil || got != want.String() {
					t.Fatalf("doc %d, OID %d, indent %t: Emit renders (%v)\n%s\nthe reassembled tree\n%s", i, o, indent, err, got, want.String())
				}
			}
		}
	}
}

// FuzzRender drives bytes → Parse → Load → Store.Emit → writer. The
// output must parse back to the parsed tree with its attributes sorted
// by name, and print what the reassembled tree printed — where that
// reference can say it: it kept only the first of two attributes whose
// local names coincide.
func FuzzRender(f *testing.F) {
	for _, s := range []string{
		"<a/>",
		`<a z="1" b="2" m="&quot;&amp;&lt;">t<b k="v"/>u<c>v &amp; w</c></a>`,
		`<a k="x&#13;y">x&#xD;y</a>`,
		`<p:a xmlns:p="u" p:k="1" k="2"><b/></p:a>`,
		"<a>\xc3\xa9 ]]&gt; <![CDATA[<x>]]></a>",
		"<r><c><d>payload</d></c><c><d>payload</d></c><c/></r>",
		strings.Repeat("<n>", 50) + "x" + strings.Repeat("</n>", 50),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		doc, err := xmltree.ParseString(in)
		if err != nil {
			return
		}
		s, err := Load(doc)
		if err != nil {
			t.Fatalf("Load refuses what Parse accepts: %v\ninput: %q", err, in)
		}
		got, err := render(s, s.Root(), false)
		if err != nil {
			t.Fatalf("Emit: %v\ninput: %q", err, in)
		}
		if _, err := xmltree.ParseString(doc.XMLString()); err != nil {
			return // a dropped prefix left a local name that is no Name: the tree has no XML form either
		}
		unique := true
		doc.Walk(func(n *xmltree.Node) bool {
			slices.SortStableFunc(n.Attrs, func(a, b xmltree.Attr) int { return strings.Compare(a.Name, b.Name) })
			for i := 1; i < len(n.Attrs); i++ {
				unique = unique && n.Attrs[i].Name != n.Attrs[i-1].Name
			}
			return true
		})
		back, err := xmltree.ParseString(got)
		if err != nil || !xmltree.Equal(back, doc) {
			t.Fatalf("rendered XML does not parse back to the document (%v)\ninput: %q\nxml:   %q", err, in, got)
		}
		if !unique {
			return
		}
		ref, err := reassembleSubtree(s, s.Root())
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.XMLString(); got != want {
			t.Fatalf("Emit renders %q, the reassembled tree %q\ninput: %q", got, want, in)
		}
	})
}
