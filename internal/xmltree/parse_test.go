package xmltree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"ncq/internal/pathsum"
)

func TestParseSimple(t *testing.T) {
	d, err := ParseString(`<a x="1"><b>hi</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Root.Label != "a" {
		t.Errorf("root = %q, want a", d.Root.Label)
	}
	if v, ok := d.Root.Attr("x"); !ok || v != "1" {
		t.Errorf("attr x = (%q,%v)", v, ok)
	}
	if d.Len() != 4 { // a, b, cdata(hi), c
		t.Errorf("Len = %d, want 4", d.Len())
	}
	b := d.Root.Children[0]
	if b.Label != "b" || len(b.Children) != 1 || b.Children[0].Text != "hi" {
		t.Errorf("unexpected b subtree: %+v", b)
	}
}

func TestParseSkipsWhitespaceComments(t *testing.T) {
	d, err := ParseString("<a>\n  <!-- note -->\n  <?pi data?>\n  <b>x</b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 { // a, b, cdata(x)
		t.Errorf("Len = %d, want 3 (whitespace/comments must not create nodes)", d.Len())
	}
}

func TestParseMergesEntitySplitText(t *testing.T) {
	d, err := ParseString(`<a>Hacking &amp; RSI</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (entity must not split the cdata node)", d.Len())
	}
	if got := d.Root.Children[0].Text; got != "Hacking & RSI" {
		t.Errorf("text = %q, want %q", got, "Hacking & RSI")
	}
}

func TestParsePreservesInternalWhitespace(t *testing.T) {
	d, err := ParseString(`<a>How to Hack</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Root.Children[0].Text; got != "How to Hack" {
		t.Errorf("text = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"unclosed", "<a><b></a>"},
		{"garbage", "not xml at all <<<"},
		{"reserved cdata element", "<a><cdata>x</cdata></a>"},
		{"truncated", "<a><b>text"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseString(c.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", c.in)
			}
		})
	}
}

func TestParseErrorsCarryOffsets(t *testing.T) {
	_, err := ParseString("<a><b>text</b><cdata>x</cdata></a>")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "byte") {
		t.Errorf("error %q does not mention the input offset", err)
	}
}

func TestParseDeepNesting(t *testing.T) {
	var sb strings.Builder
	const depth = 500
	for i := 0; i < depth; i++ {
		sb.WriteString("<n>")
	}
	sb.WriteString("leaf")
	for i := 0; i < depth; i++ {
		sb.WriteString("</n>")
	}
	d, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != depth+1 {
		t.Errorf("Len = %d, want %d", d.Len(), depth+1)
	}
	leaf := d.Node(d.MaxOID())
	if leaf.Depth != depth {
		t.Errorf("leaf depth = %d, want %d", leaf.Depth, depth)
	}
}

func TestRoundTripFig1(t *testing.T) {
	d := Fig1()
	s := d.XMLString()
	d2, err := ParseString(s)
	if err != nil {
		t.Fatalf("re-parse: %v\nserialised: %s", err, s)
	}
	if !Equal(d, d2) {
		t.Errorf("round trip changed the document:\n%s\nvs\n%s", s, d2.XMLString())
	}
}

func TestRoundTripEscaping(t *testing.T) {
	d := MustDocument("r", func(b *Builder) {
		e := b.Element(b.Root(), "e", Attr{"a", `va&l"ue<`})
		b.Text(e, `x < y && y > "z"`)
	})
	d2, err := ParseString(d.XMLString())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d, d2) {
		t.Errorf("escaping round trip failed:\n%s", d.XMLString())
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		d := Random(r, 80)
		d2, err := ParseString(d.XMLString())
		if err != nil {
			t.Fatalf("doc %d: re-parse: %v\n%s", i, err, d.XMLString())
		}
		if !Equal(d, d2) {
			t.Fatalf("doc %d: round trip changed document\n%s\nvs\n%s",
				i, d.XMLString(), d2.XMLString())
		}
		if err := d2.Validate(); err != nil {
			t.Fatalf("doc %d: reparsed invalid: %v", i, err)
		}
	}
}

func TestIndentedOutputParses(t *testing.T) {
	d := Fig1()
	var sb strings.Builder
	if err := d.WriteXML(&sb, true); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("indented output does not re-parse: %v\n%s", err, sb.String())
	}
	if !Equal(d, d2) {
		t.Error("indented round trip changed the document")
	}
	if !strings.Contains(sb.String(), "\n") {
		t.Error("indented output has no newlines")
	}
}

// TestParseDepthLimit pins the nesting bound where a hostile upload
// meets it: pathsum.MaxDepth levels of nodes parse, one more is refused
// at the start tag that opens it — before the rest of the input is
// read, let alone built — and text counts as a level like any node.
func TestParseDepthLimit(t *testing.T) {
	open := func(n int) string { return strings.Repeat("<n>", n) }
	shut := func(n int) string { return strings.Repeat("</n>", n) }
	const max = pathsum.MaxDepth

	d, err := ParseString(open(max) + shut(max))
	if err != nil {
		t.Fatalf("%d levels: %v", max, err)
	}
	if got := d.Node(d.MaxOID()).Depth; got != max-1 {
		t.Errorf("deepest node at depth %d, want %d", got, max-1)
	}
	if _, err := ParseString(open(max-1) + "leaf" + shut(max-1)); err != nil {
		t.Fatalf("%d elements and a text level: %v", max-1, err)
	}

	// What follows the offending tag is not even well-formed: the
	// depth error must win, at that tag's offset.
	_, err = ParseString(open(max+1) + "<<<")
	want := fmt.Sprintf("parse at byte %d: xmltree: document nests deeper than %d levels", 3*(max+1), max)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%d levels: err = %v, want %q", max+1, err, want)
	}
	if _, err := ParseString(open(max) + "leaf" + shut(max)); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Errorf("text at level %d: err = %v, want the depth limit", max+1, err)
	}
}

// TestParseRefusals pins what the parser refuses and where it says so.
// Every row was recorded against the encoding/xml loop the scanner
// replaced and is still checked against it (referenceParse): the same
// inputs are refused. Every refusal reads "parse at byte N" with N
// inside the offending construct, [lo, hi] here; on the three rows older
// tests pin — reserved label, second root, depth bound — N is exactly
// the end of the offending start tag, as it always was.
func TestParseRefusals(t *testing.T) {
	const max = pathsum.MaxDepth
	rows := []struct {
		name, in string
		lo, hi   int
	}{
		{"mismatched end tag", "<a><b></a>", 6, 10},
		{"prefix-mismatched end tag", "<a><x:b></y:b></a>", 8, 14},
		{"end tag without a start", "<a/></a>", 4, 8},
		{"EOF inside a tag", `<a><b x="1"`, 3, 11},
		{"EOF inside a comment", "<a><!-- c", 3, 9},
		{"EOF inside CDATA", "<a><![CDATA[x", 3, 13},
		{"EOF with open elements", "<a><b>text</b>", 14, 14},
		{"unknown entity", "<a>&nbsp;</a>", 3, 9},
		{"empty numeric reference", "<a>&#x;</a>", 3, 7},
		{"unterminated numeric reference", "<a>&#12</a>", 3, 8},
		{"reference to an illegal character", "<a>&#0;</a>", 3, 7},
		{"< in an attribute value", `<a x="<"/>`, 3, 7},
		{"unquoted attribute", "<a x=1/>", 3, 6},
		{"attribute without a value", "<a x/>", 3, 5},
		{"]]> in text", "<a>]]></a>", 3, 6},
		{"invalid UTF-8", "<a>\xff</a>", 3, 4},
		{"control character", "<a>\x01</a>", 3, 4},
		{"-- in a comment", "<a><!-- x -- y --></a>", 3, 18},
		{"name starting with a digit", "<1a/>", 0, 5},
		{"two colons in a name", "<a:b:c/>", 0, 8},
		{"non-UTF-8 encoding", `<?xml version="1.0" encoding="ISO-8859-1"?><a/>`, 0, 43},
		{"XML version 1.1", `<?xml version="1.1"?><a/>`, 0, 21},
		{"bad reference after the root", "<a/>trailing&bad;", 12, 17},
		{"reserved cdata label", "<a><b>text</b><cdata>x</cdata></a>", 21, 21},
		{"second root", "<a></a><b></b>", 10, 10},
		{"depth bound", strings.Repeat("<n>", max+1) + "<<<", 3 * (max + 1), 3 * (max + 1)},
		{"text past the depth bound", strings.Repeat("<n>", max) + "leaf" + strings.Repeat("</n>", max), 3 * max, 3*max + 8},
		{"empty input", "", 0, 0},
		{"white space only", "  \n", 3, 3},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if _, err := referenceParse(row.in); err == nil {
				t.Fatal("the reference loop accepts this input")
			}
			_, err := ParseString(row.in)
			if err == nil {
				t.Fatal("accepted")
			}
			var n int
			if _, scanErr := fmt.Sscanf(err.Error(), "xmltree: parse at byte %d: ", &n); scanErr != nil {
				t.Fatalf("refusal carries no position: %v", err)
			}
			if n < row.lo || n > row.hi {
				t.Errorf("refused at byte %d, want %d..%d: %v", n, row.lo, row.hi, err)
			}
		})
	}
	for _, in := range []string{"<a><x:b></x:b></a>", "<a/><!-- ok --> \n", "<a>&#xD800;</a>", "<!DOCTYPE a [<!ENTITY e '>'>]><a/>"} {
		if _, err := referenceParse(in); err != nil {
			t.Fatalf("the reference loop refuses %q: %v", in, err)
		}
		if _, err := ParseString(in); err != nil {
			t.Errorf("ParseString(%q): %v", in, err)
		}
	}
}

// TestNameTables compares the scanner's name-character ranges with
// encoding/xml's, which define them, on every code point of the BMP —
// neither table reaches beyond it, which a sample confirms — as the
// first and as a later character of an element name.
func TestNameTables(t *testing.T) {
	check := func(r rune) {
		for _, name := range []string{string(r), "a" + string(r)} {
			in := "<" + name + "/>"
			_, wantErr := referenceParse(in)
			if _, err := ParseString(in); (err == nil) != (wantErr == nil) {
				t.Fatalf("%U in %q: scanner %v, encoding/xml %v", r, in, err, wantErr)
			}
		}
	}
	for r := rune(1); r <= 0xFFFF; r++ {
		if r < 0xD800 || r >= 0xE000 {
			check(r)
		}
	}
	for r := rune(0x10000); r <= unicode.MaxRune; r += 0x3FF {
		check(r)
	}
}
