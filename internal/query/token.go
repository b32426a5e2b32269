// Package query implements the SQL-variant query language the paper
// uses throughout (footnote 1: "a variant of SQL enriched with paths
// and path variables"), extended with the meet operator as a
// declarative aggregation construct (Section 3.2's reformulated
// example query).
//
// Grammar (keywords are case-insensitive):
//
//	query    = SELECT items FROM bindings [WHERE conds]
//	items    = meetItem | projItem {"," projItem}
//	meetItem = MEET "(" var {"," var} [";" option {"," option}] ")"
//	option   = EXCLUDE pattern | WITHIN number | MAXLIFT number
//	         | NEAREST | RANKED
//	projItem = var | TAG "(" var ")" | PATH "(" var ")"
//	         | VALUE "(" var ")" | XML "(" var ")"
//	bindings = pattern AS var {"," pattern AS var}
//	conds    = expr {AND expr}          each conjunct: one variable
//	expr     = unary {OR unary}
//	unary    = NOT unary | "(" group ")" | pred
//	group    = expr {AND expr}
//	pred     = var CONTAINS string | var "=" string
//
// Patterns are the regular path expressions of package pathexpr
// (/a/b, *, %, //, @attr). Example — the paper's nearest concept
// query from Section 3.2:
//
//	SELECT meet(e1, e2)
//	FROM //cdata AS e1, //cdata AS e2
//	WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'
//
// A parsed query has two consumers, and one lowering (Engine.Lower:
// bind the FROM variables, filter them by WHERE) under both. The
// request pipeline of package ncq (Request.Query: Run, Results, the
// server, a cluster) feeds the lowered input sets to the same ranked,
// paged, streamed execution a term request gets, so there every answer
// comes by ascending distance: RANKED is accepted and is what the
// answer already is. Engine.Eval is the single-document evaluator
// behind ncq.Database.Query and the ncq CLI: rows in document order
// unless RANKED, rendered as the paper's <answer><result> set.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkString
	tkNumber
	tkPath
	tkComma
	tkLParen
	tkRParen
	tkSemi
	tkEq
)

func (k tokenKind) String() string {
	switch k {
	case tkEOF:
		return "end of query"
	case tkIdent:
		return "identifier"
	case tkString:
		return "string literal"
	case tkNumber:
		return "number"
	case tkPath:
		return "path pattern"
	case tkComma:
		return "','"
	case tkLParen:
		return "'('"
	case tkRParen:
		return "')'"
	case tkSemi:
		return "';'"
	case tkEq:
		return "'='"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the source, for error messages
}

// Error is a query compilation or evaluation error with its position.
type Error struct {
	Pos int // byte offset into the query source, -1 when unknown
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Pos >= 0 {
		return fmt.Sprintf("query: at offset %d: %s", e.Pos, e.Msg)
	}
	return "query: " + e.Msg
}

func errf(pos int, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lex splits the source into tokens.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			toks = append(toks, token{tkComma, ",", i})
			i++
		case c == '(':
			toks = append(toks, token{tkLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tkRParen, ")", i})
			i++
		case c == ';':
			toks = append(toks, token{tkSemi, ";", i})
			i++
		case c == '=':
			toks = append(toks, token{tkEq, "=", i})
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					// '' is an escaped quote inside the literal.
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, errf(start, "unterminated string literal")
			}
			toks = append(toks, token{tkString, sb.String(), start})
		case c == '/':
			start := i
			for i < len(src) && isPathChar(src[i]) {
				i++
			}
			toks = append(toks, token{tkPath, src[start:i], start})
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			toks = append(toks, token{tkNumber, src[start:i], start})
		case isIdentStart(rune(c)):
			start := i
			for i < len(src) && isIdentChar(rune(src[i])) {
				i++
			}
			toks = append(toks, token{tkIdent, src[start:i], start})
		default:
			return nil, errf(i, "unexpected character %q", c)
		}
	}
	toks = append(toks, token{tkEOF, "", len(src)})
	return toks, nil
}

func isPathChar(c byte) bool {
	return c == '/' || c == '*' || c == '%' || c == '@' || c == '-' ||
		c == '_' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' || r == '$' }
func isIdentChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$'
}

// keyword reports whether tok is the given keyword, case-insensitively.
func (t token) keyword(kw string) bool {
	return t.kind == tkIdent && strings.EqualFold(t.text, kw)
}
