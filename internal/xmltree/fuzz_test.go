package xmltree

import (
	"strings"
	"testing"
	"testing/iotest"
)

// parseWindow is ParseString through a scanner whose window starts at
// size bytes and is fed one byte per Read: every token straddles a
// refill.
func parseWindow(in string, size int) (doc *Document, err error) {
	err = parse(newScanner(iotest.OneByteReader(strings.NewReader(in)), size), nil, Documents(func(d *Document) error { doc = d; return nil }))
	return doc, err
}

// FuzzParse feeds arbitrary bytes to the parser and to the encoding/xml
// loop it replaced (referenceParseSplit): both must accept or both
// refuse, and accepted input must yield equal trees — also through a
// three-byte window refilled a byte at a time. Accepted inputs must
// further produce valid documents that survive a serialise/re-parse
// round trip, and split into the same parts under a byte budget.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"<a/>",
		"<a><b>hi</b></a>",
		`<a x="1">t<b/>u</a>`,
		"<a>Hacking &amp; RSI</a>",
		"<a><!-- c --><?pi?><b/></a>",
		"<a><b></a>",
		"",
		"<cdata>x</cdata>",
		"<a>\xff\xfe</a>",
		strings.Repeat("<n>", 50) + "x" + strings.Repeat("</n>", 50),
		`<!DOCTYPE a [<!ENTITY e "v"><!-- > --><!ELEMENT a (#PCDATA)>]><a>x</a>`,
		"<a>x<![CDATA[<y> & ]]]]>z</a>",
		"<a>&#x48;&#105;&#xD800;&lt;&gt;&apos;&quot;</a>",
		`<p:a xmlns:p="u" xmlns="d" p:k="1"><q:b>unbound</q:b><p:b/></p:a>`,
		"<a><x:b></y:b></a>",
		"<a>one\r\ntwo\rthree</a>",
		`<a k="x&#13;y">x&#xD;y</a>`,
		`<?xml version="1.0" encoding="UTF-8"?><a/>`,
		`<?xml version='1.0' encoding='latin1'?><a/>`,
		`<a x='1' y="2"z='"'/>`,
		`<p:a A:0=""><q:-b/></p:a>`,
		"<a>]]&gt;<b k=']]>'/>]]></a>",
		"<é ü='ï'>ß</é>",
		"<a>" + strings.Repeat("long text with &amp; inside ", 20) + "</a>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		doc, err := ParseString(in)
		want, wantErr := referenceParse(in)
		small, smallErr := parseWindow(in, 3)
		if (err == nil) != (wantErr == nil) || (err == nil) != (smallErr == nil) {
			t.Fatalf("accept/refuse differs: scanner %v, 3-byte window %v, reference %v\ninput: %q", err, smallErr, wantErr, in)
		}
		if err != nil {
			return // rejected input is fine
		}
		if !Equal(doc, want) || !Equal(small, want) {
			t.Fatalf("trees differ\ninput: %q\nscanner:   %s\n3-byte:    %s\nreference: %s", in, doc.XMLString(), small.XMLString(), want.XMLString())
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("accepted document is invalid: %v\ninput: %q", err, in)
		}
		// Under a byte budget both loops cut at the same boundaries:
		// the offsets a cut is decided on are the same.
		var parts, wantParts []*Document
		cut := func(span int64) bool { return span >= int64(len(in)%5+1) }
		err = ParseSplit(strings.NewReader(in), cut, Documents(func(d *Document) error { parts = append(parts, d); return nil }))
		wantErr = referenceParseSplit(strings.NewReader(in), cut, func(d *Document) error { wantParts = append(wantParts, d); return nil })
		if err != nil || wantErr != nil || len(parts) != len(wantParts) {
			t.Fatalf("split: %d parts (%v), reference %d parts (%v)\ninput: %q", len(parts), err, len(wantParts), wantErr, in)
		}
		for i := range parts {
			if !Equal(parts[i], wantParts[i]) {
				t.Fatalf("part %d differs: %s, reference %s\ninput: %q", i, parts[i].XMLString(), wantParts[i].XMLString(), in)
			}
		}
		// Dropping a prefix can leave a local name that is no Name on
		// its own ("p:0" is one, "0" is not): such a tree has no XML
		// form to round-trip through.
		writable := true
		doc.Walk(func(n *Node) bool {
			writable = writable && (n.Kind == CData || isName([]byte(n.Label)))
			for _, a := range n.Attrs {
				writable = writable && isName([]byte(a.Name))
			}
			return writable
		})
		if !writable {
			return
		}
		again, err := ParseString(doc.XMLString())
		if err != nil {
			t.Fatalf("serialised form does not re-parse: %v\ninput: %q\nxml: %q",
				err, in, doc.XMLString())
		}
		if !Equal(doc, again) {
			t.Fatalf("round trip changed document\ninput: %q", in)
		}
	})
}
