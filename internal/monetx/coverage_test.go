package monetx

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ncq/internal/xmltree"
)

func TestPathOf(t *testing.T) {
	s := fig1Store(t)
	if s.Summary().String(s.PathOf(3)) != "/bibliography/institute/article" {
		t.Errorf("PathOf(3) = %s", s.Summary().String(s.PathOf(3)))
	}
	if s.PathOf(1) != s.Summary().Root() {
		t.Error("PathOf(root) should be the root path")
	}
}

func TestReassembleSubtreeErrors(t *testing.T) {
	s := fig1Store(t)
	if _, err := rebuild(s, 8); err == nil {
		t.Error("cdata subtree accepted")
	}
	if _, err := rebuild(s, 0); err == nil {
		t.Error("invalid OID accepted")
	}
	sub, err := rebuild(s, 4) // the first author
	if err != nil {
		t.Fatal(err)
	}
	want := "<author><firstname>Ben</firstname><lastname>Bit</lastname></author>"
	if sub.XMLString() != want {
		t.Errorf("subtree = %q, want %q", sub.XMLString(), want)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestDumpTransformWriterError(t *testing.T) {
	s := fig1Store(t)
	var full bytes.Buffer
	if err := s.DumpTransform(&full, 0); err != nil {
		t.Fatal(err)
	}
	for budget := 0; budget < full.Len(); budget += 64 {
		if err := s.DumpTransform(&failWriter{n: budget}, 0); err == nil {
			t.Fatalf("budget %d: failing writer not reported", budget)
		}
	}
}

func TestWriteSnapshotWriterError(t *testing.T) {
	s := fig1Store(t)
	if err := s.WriteSnapshot(&failWriter{n: 10}); err == nil {
		t.Error("failing writer not reported")
	}
}

func TestReadSnapshotRejectsTamperedVersions(t *testing.T) {
	s := fig1Store(t)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupting the gob stream must error out, never panic.
	raw := buf.Bytes()
	for _, cut := range []int{1, len(raw) / 4, len(raw) - 3} {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadRejectsDocumentWithReservedLabel(t *testing.T) {
	// Builder refuses reserved labels, so corrupt a node after Done.
	doc := xmltree.Fig1()
	doc.Node(5).Label = xmltree.CDataLabel + "/evil"
	// Loading still works (label is just a string), but the path
	// summary keeps it distinct; this documents that Load trusts
	// Validate-level invariants only.
	if _, err := Load(doc); err != nil {
		t.Fatalf("Load rejected odd label: %v", err)
	}
}

func TestTextOnCDataWithoutStringRelation(t *testing.T) {
	// A synthetic store where a cdata node exists but its text was
	// never recorded cannot happen through Load; Text's miss path is
	// still reachable via an element labelled differently.
	s := fig1Store(t)
	if _, ok := s.Text(1); ok {
		t.Error("root has text?")
	}
	if _, ok := s.Text(11); ok {
		t.Error("year element has direct text?")
	}
}

func TestChildrenOfNodeWithSingleChildPath(t *testing.T) {
	s := fig1Store(t)
	// institute (o2) has only article children — single-path fast path.
	got := s.Children(2)
	if len(got) != 2 || got[0] != 3 || got[1] != 13 {
		t.Errorf("Children(2) = %v", got)
	}
}

func TestDocOrderAndSiblings(t *testing.T) {
	s := fig1Store(t)
	if !s.DocBefore(3, 13) || s.DocBefore(13, 3) || s.DocBefore(5, 5) {
		t.Error("DocBefore wrong")
	}
	// article o3's next sibling is article o13; o13 has none.
	if got := s.NextSibling(3); got != 13 {
		t.Errorf("NextSibling(3) = %d, want 13", got)
	}
	if got := s.NextSibling(13); got != 0 {
		t.Errorf("NextSibling(13) = %d, want Nil", got)
	}
	if got := s.PrevSibling(13); got != 3 {
		t.Errorf("PrevSibling(13) = %d, want 3", got)
	}
	if got := s.PrevSibling(3); got != 0 {
		t.Errorf("PrevSibling(3) = %d, want Nil", got)
	}
	// Root has no siblings.
	if s.NextSibling(1) != 0 || s.PrevSibling(1) != 0 {
		t.Error("root should have no siblings")
	}
	// Mixed-path siblings: author(4) -> title(9) -> year(11).
	if s.NextSibling(4) != 9 || s.NextSibling(9) != 11 || s.PrevSibling(11) != 9 {
		t.Error("mixed-path sibling navigation wrong")
	}
}

func TestDumpGoldenSmall(t *testing.T) {
	doc := xmltree.MustDocument("r", func(b *xmltree.Builder) {
		x := b.Element(b.Root(), "x", xmltree.Attr{Name: "k", Value: "v"})
		b.Text(x, "hi")
	})
	s, err := Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.DumpTransform(&sb, 0); err != nil {
		t.Fatal(err)
	}
	want := `/r = {⟨root,o1⟩}
/r/x = {⟨o1,o2⟩}
/r/x@k = {⟨o2,"v"⟩}
/r/x/cdata = {⟨o2,o3⟩}
/r/x/cdata@string = {⟨o3,"hi"⟩}
`
	if sb.String() != want {
		t.Errorf("dump:\n%s\nwant:\n%s", sb.String(), want)
	}
}
