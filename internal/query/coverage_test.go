package query

import (
	"strings"
	"testing"
)

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokenKind{tkEOF, tkIdent, tkString, tkNumber, tkPath,
		tkComma, tkLParen, tkRParen, tkSemi, tkEq}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown token" {
			t.Errorf("kind %d has no display name", k)
		}
		if seen[s] {
			t.Errorf("duplicate display name %q", s)
		}
		seen[s] = true
	}
	if tokenKind(99).String() != "unknown token" {
		t.Error("out-of-range kind")
	}
}

func TestErrorWithoutPosition(t *testing.T) {
	e := &Error{Pos: -1, Msg: "boom"}
	if got := e.Error(); got != "query: boom" {
		t.Errorf("Error() = %q", got)
	}
	e2 := &Error{Pos: 7, Msg: "boom"}
	if !strings.Contains(e2.Error(), "offset 7") {
		t.Errorf("Error() = %q", e2.Error())
	}
}

func TestParseMeetOptionErrors(t *testing.T) {
	cases := []string{
		`SELECT meet(a; WITHIN 0) FROM //x AS a`,         // zero bound
		`SELECT meet(a; MAXLIFT -1) FROM //x AS a`,       // lexer splits '-'
		`SELECT meet(a; MAXLIFT 0) FROM //x AS a`,        // zero lift
		`SELECT meet(a; EXCLUDE notapath) FROM //x AS a`, // pattern must be a path token
		`SELECT meet(a; EXCLUDE //x* ) FROM //x AS a`,    // bad pattern compiles not
		`SELECT meet(a; WITHIN) FROM //x AS a`,           // missing number
		`SELECT meet(a FROM //x AS a`,                    // missing close paren
		`SELECT meet() FROM //x AS a`,                    // empty var list
	}
	for _, q := range cases {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseMultipleExcludePatterns(t *testing.T) {
	q, err := Parse(`SELECT meet(a; EXCLUDE /r, //x, WITHIN 3) FROM //x AS a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.meet.exclude) != 2 {
		t.Errorf("exclude patterns = %d, want 2", len(q.meet.exclude))
	}
	if q.meet.within != 3 {
		t.Errorf("within = %d", q.meet.within)
	}
}

func TestParseProjItemErrors(t *testing.T) {
	cases := []string{
		`SELECT tag e FROM //x AS e`,     // missing paren
		`SELECT tag(e FROM //x AS e`,     // missing close
		`SELECT tag() FROM //x AS e`,     // missing var
		`SELECT 42 FROM //x AS e`,        // number as item
		`SELECT value(e), FROM //x AS e`, // trailing comma
	}
	for _, q := range cases {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestAnswerXMLEmptyColumns(t *testing.T) {
	a := &Answer{Rows: []Row{{Tag: "x"}}}
	if got := a.XML(); !strings.Contains(got, "<result> x </result>") {
		t.Errorf("XML with no columns = %q", got)
	}
}

func TestXMLOfMissingSubtree(t *testing.T) {
	e := fig1Engine(t)
	// xmlOf on an element works; the engine never passes invalid OIDs,
	// and a cdata OID renders as bare text.
	if got := e.XML(11); got != "<year>1999</year>" {
		t.Errorf("xmlOf(11) = %q", got)
	}
	if got := e.XML(12); got != "1999" {
		t.Errorf("xmlOf(12) = %q", got)
	}
}

func TestEngineEvalOnPreparsedQuery(t *testing.T) {
	e := fig1Engine(t)
	q, err := Parse(`SELECT e FROM //year AS e`)
	if err != nil {
		t.Fatal(err)
	}
	// Eval is reusable: run the same parsed query twice.
	for i := 0; i < 2; i++ {
		ans, err := e.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Rows) != 2 {
			t.Fatalf("run %d: rows = %d", i, len(ans.Rows))
		}
	}
}
