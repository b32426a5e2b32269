package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// scanWindow is the size of the scanner's byte window on the input. The
// window grows only when a single name (or XML declaration) does not
// fit; character data is copied out run by run, and everything skipped
// is not kept at all.
const scanWindow = 32 << 10

// scanner reads the XML language ParseSplit accepts from a refillable
// window on an io.Reader. The language is the one encoding/xml's strict
// decoder accepts, and the differential FuzzParse holds it to that:
// well-formed tags with quoted attributes, end tags matching by
// qualified name, the five predefined entities and numeric character
// references and no others, CDATA sections, comments, processing
// instructions and directives skipped (an internal subset included, its
// declarations never applied), "\r\n" and "\r" read as "\n", names,
// values and text in UTF-8 within XML 1.0's character range, an XML
// declaration naming no other version than 1.0 and no other encoding
// than UTF-8.
//
// The first refusal sticks in fail: every method is a no-op returning
// zero values from then on, and the token loop looks once per token.
type scanner struct {
	r    io.Reader
	buf  []byte // the window: buf[pos:end] is unread
	pos  int
	end  int
	hold int   // fill keeps buf[hold:pos] when hold >= 0: the name being scanned
	base int64 // input offset of buf[0]
	err  error // what ended the input: io.EOF, or the reader's error
	fail error // the first refusal

	names map[string]qname // every qualified name seen, checked and split once
	attrs []Attr           // attributes of the start tag being scanned
	tag   int              // start tags scanned
	inTag map[string]int   // each local attribute name's last start tag
	dup   string           // a local name the last start tag repeats, or ""
	val   []byte           // the attribute value being scanned
}

func newScanner(r io.Reader, window int) *scanner {
	return &scanner{r: r, buf: make([]byte, window), hold: -1, names: map[string]qname{}, inTag: map[string]int{}}
}

// qname is an interned qualified name: raw as written, which is what an
// end tag must repeat, and local with the namespace prefix dropped,
// which is all the data model keeps.
type qname struct{ raw, local string }

// offset returns the input offset one past the last byte consumed.
func (s *scanner) offset() int64 { return s.base + int64(s.pos) }

// failf refuses the input at the current offset, unless it already is.
func (s *scanner) failf(format string, args ...any) error {
	if s.fail == nil {
		s.fail = fmt.Errorf("xmltree: parse at byte %d: %s", s.offset(), fmt.Sprintf(format, args...))
	}
	return s.fail
}

// fill reads more input into the window, discarding what has been
// consumed except a held name, and reports whether any arrived.
func (s *scanner) fill() bool {
	if s.err != nil {
		return false
	}
	keep := s.pos
	if s.hold >= 0 {
		keep, s.hold = s.hold, 0
	}
	if keep == 0 && s.end == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	copy(s.buf, s.buf[keep:s.end])
	s.base += int64(keep)
	s.pos -= keep
	s.end -= keep
	for tries := 0; tries < 100; tries++ {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		s.err = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	s.err = io.ErrNoProgress
	return false
}

// peek returns the next input byte without consuming it; ok is false
// at the end of the input and after a refusal.
func (s *scanner) peek() (c byte, ok bool) {
	if s.fail != nil || s.pos == s.end && !s.fill() {
		return 0, false
	}
	return s.buf[s.pos], true
}

// next consumes one byte that must be there: the end of the input
// refuses it, with the reader's own error if that is what ended it — a
// body over the size limit must stay recognisable.
func (s *scanner) next() byte {
	c, ok := s.peek()
	switch {
	case ok:
		s.pos++
	case s.fail == nil && s.err != io.EOF:
		s.fail = fmt.Errorf("xmltree: parse at byte %d: %w", s.offset(), s.err)
	default:
		s.failf("unexpected EOF")
	}
	return c
}

// expect consumes one byte that must be want.
func (s *scanner) expect(want byte, otherwise string) {
	if c := s.next(); c != want {
		s.failf("%s", otherwise)
	}
}

// space skips white space, if any.
func (s *scanner) space() {
	for c, ok := s.peek(); ok && (c == ' ' || c == '\n' || c == '\t' || c == '\r'); c, ok = s.peek() {
		s.pos++
	}
}

// skip consumes lit if the input continues with it.
func (s *scanner) skip(lit string) bool {
	for s.end-s.pos < len(lit) && s.fill() {
	}
	if s.fail != nil || !bytes.HasPrefix(s.buf[s.pos:s.end], []byte(lit)) {
		return false
	}
	s.pos += len(lit)
	return true
}

// skipTo consumes the input through the first occurrence of delim.
func (s *scanner) skipTo(delim string) {
	for s.fail == nil {
		if i := bytes.Index(s.buf[s.pos:s.end], []byte(delim)); i >= 0 {
			s.pos += i + len(delim)
			return
		}
		s.pos = max(s.pos, s.end-len(delim)+1) // the last bytes may begin it
		if !s.fill() {
			s.pos = s.end
			s.next()
		}
	}
}

// Byte classes of the two hot loops. nameByte: bytes a name runs over —
// every multi-byte sequence too, checked once the name is complete.
// textStop: bytes character data cannot copy blindly — markup, quotes,
// references, "\r", controls, and every non-ASCII byte.
var nameByte, textStop [256]bool

func init() {
	for c := 0; c < 256; c++ {
		nameByte[c] = c >= utf8.RuneSelf || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c == '_' || c == ':' || c == '.' || c == '-'
		textStop[c] = c >= utf8.RuneSelf || c < ' ' && c != '\n' && c != '\t' || strings.IndexByte(`<>&"'`, byte(c)) >= 0
	}
}

// nameBytes scans a run of name bytes and returns it, valid until the
// next read from the window. The run may be empty or no name at all;
// the byte that ends it is in the window.
func (s *scanner) nameBytes() []byte {
	s.hold = s.pos
	for s.fail == nil {
		for s.pos < s.end && nameByte[s.buf[s.pos]] {
			s.pos++
		}
		if s.pos < s.end {
			break
		}
		if !s.fill() {
			s.next() // refuses: no name ends the input
		}
	}
	b := s.buf[s.hold:s.pos]
	s.hold = -1
	return b
}

// skipName consumes name if the window holds it followed by a byte
// that ends a name, and reports whether it did: a name the window cuts
// short, or one that goes on, is left for nameBytes.
func (s *scanner) skipName(name string) bool {
	if s.end-s.pos <= len(name) || string(s.buf[s.pos:s.pos+len(name)]) != name || nameByte[s.buf[s.pos+len(name)]] {
		return false
	}
	s.pos += len(name)
	return true
}

// name scans a qualified name; what names the construct it belongs to.
// At most one colon, and only one with a name on both sides separates a
// prefix: ":a" and "a:" are local names in full.
func (s *scanner) name(what string) qname {
	b := s.nameBytes()
	if q, ok := s.names[string(b)]; ok || s.fail != nil {
		return q
	}
	if !isName(b) || bytes.Count(b, []byte{':'}) > 1 {
		s.failf("expected %s", what)
		return qname{}
	}
	q := qname{raw: string(b)}
	q.local = q.raw
	if i := strings.IndexByte(q.raw, ':'); i > 0 && i < len(q.raw)-1 {
		q.local = q.raw[i+1:]
	}
	s.names[q.raw] = q
	return q
}

// startTag scans a start tag from its name on; dup names an attribute
// it repeats. The attributes are valid until the next start tag.
func (s *scanner) startTag() (name qname, attrs []Attr, empty bool) {
	name = s.name("element name after <")
	s.attrs, s.dup = s.attrs[:0], ""
	s.tag++
	for s.fail == nil {
		s.space()
		switch c, _ := s.peek(); c {
		case '>':
			s.pos++
			return name, s.attrs, false
		case '/':
			s.pos++
			s.expect('>', "expected /> in element")
			return name, s.attrs, true
		}
		a := s.name("attribute name in element")
		if n := len(s.attrs); n > 0 { // a tag's first attribute repeats nothing
			if n == 1 {
				s.inTag[s.attrs[0].Name] = s.tag
			}
			if s.inTag[a.local] == s.tag {
				s.dup = a.local
			}
			s.inTag[a.local] = s.tag
		}
		s.space()
		s.expect('=', "attribute name without = in element")
		s.space()
		quote := s.next()
		if quote != '"' && quote != '\'' {
			s.failf("unquoted or missing attribute value in element")
		}
		s.val = s.text(s.val[:0], quote, false)
		s.attrs = append(s.attrs, Attr{a.local, string(s.val)})
	}
	return name, nil, false
}

// text appends one token of character data to dst, decoded — references
// replaced, line ends normalised — and checked rune by rune. Plain text
// (no quote, not cdata) runs to the next '<', which stays unread, or to
// the end of the input; an attribute value to its closing quote; a
// CDATA section to its "]]>".
func (s *scanner) text(dst []byte, quote byte, cdata bool) []byte {
	// dst[raw:] came straight from the input: only there does "]]"
	// before '>' count, so that "]]&gt;" and "&#93;]>" pass.
	raw := len(dst)
	for s.fail == nil {
		if s.pos == s.end && !s.fill() {
			if cdata || quote != 0 {
				s.next()
			}
			break
		}
		i := s.pos
		for i < s.end && !textStop[s.buf[i]] {
			i++
		}
		dst = append(dst, s.buf[s.pos:i]...)
		if s.pos = i; i == s.end {
			continue
		}
		c := s.buf[i]
		switch {
		case c == '<' && !cdata:
			if quote != 0 {
				s.failf("unescaped < inside quoted string")
			}
			return dst
		case c == '&' && !cdata:
			s.pos++
			dst = s.reference(dst)
			raw = len(dst)
			continue
		case c == '>' && quote == 0 && bytes.HasSuffix(dst[raw:], []byte("]]")):
			s.pos++
			if !cdata {
				s.failf("unescaped ]]> not in CDATA section")
			}
			return dst[:len(dst)-2]
		case c == quote && quote != 0:
			s.pos++
			return dst
		case c == '\r':
			s.pos++
			if c, _ := s.peek(); c == '\n' {
				s.pos++
			}
			c = '\n'
		case c >= utf8.RuneSelf:
			for !utf8.FullRune(s.buf[s.pos:s.end]) && s.fill() {
			}
			r, size := utf8.DecodeRune(s.buf[s.pos:s.end])
			if r == utf8.RuneError && size == 1 {
				s.failf("invalid UTF-8")
			} else if !inCharacterRange(r) {
				s.failf("illegal character code %U", r)
			}
			dst = append(dst, s.buf[s.pos:s.pos+size]...)
			s.pos += size
			continue
		case c < ' ':
			s.failf("illegal character code %U", c)
		default:
			s.pos++
		}
		dst = append(dst, c)
	}
	return dst
}

// inCharacterRange is the Char production of XML 1.0 § 2.2.
func inCharacterRange(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// entities are the five every parser must know undeclared. No
// declaration is ever read, so no other entity has a value.
var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// reference decodes what follows an '&': one of the five entities, or a
// decimal or hexadecimal character reference.
func (s *scanner) reference(dst []byte) []byte {
	c, _ := s.peek()
	if c == '#' {
		s.pos++
	}
	b := s.nameBytes()
	r := entities[string(b)]
	if c == '#' {
		base := 10
		if len(b) > 0 && b[0] == 'x' {
			base, b = 16, b[1:]
		}
		n, err := strconv.ParseUint(string(b), base, 64)
		if r = rune(n); err != nil || n > unicode.MaxRune {
			r = 0
		} else if r >= 0xD800 && r < 0xE000 {
			r = utf8.RuneError // what a conversion makes of a surrogate
		}
	}
	if c, _ := s.peek(); c != ';' || !inCharacterRange(r) {
		s.failf("invalid character reference")
		return dst
	}
	s.pos++
	return utf8.AppendRune(dst, r)
}

// procInst skips a processing instruction from its target on. One named
// xml is a declaration and may name only version 1.0 and UTF-8.
func (s *scanner) procInst() {
	target := s.nameBytes()
	if !isName(target) {
		s.failf("expected target name after <?")
	}
	decl := string(target) == "xml" // before the window moves on
	s.space()
	if !decl {
		s.skipTo("?>")
		return
	}
	s.hold = s.pos
	s.skipTo("?>")
	content := strings.TrimSuffix(string(s.buf[s.hold:s.pos]), "?>")
	s.hold = -1
	if ver := pseudoAttr(content, "version"); ver != "" && ver != "1.0" {
		s.failf("unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := pseudoAttr(content, "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
		s.failf("unsupported encoding %q; only UTF-8 is supported", enc)
	}
}

// pseudoAttr extracts param="value" from an XML declaration, as loosely
// as encoding/xml does: the first occurrence of param= followed by a
// quote, up to the next quote of that kind; "" when there is none.
func pseudoAttr(s, param string) string {
	param += "="
	for {
		k := strings.Index(s, param)
		if k < 0 || k+len(param) >= len(s) {
			return ""
		}
		q := s[k+len(param)]
		s = s[k+len(param)+1:]
		if q == '\'' || q == '"' {
			if j := strings.IndexByte(s, q); j >= 0 {
				return s[:j]
			}
			return ""
		}
	}
}

// directive skips a directive — <!DOCTYPE ...>, <!ENTITY ...>, ... —
// from after its "<!": to the first '>' outside quotes, nested <...>
// and comments. Its first byte is never markup.
func (s *scanner) directive() {
	if c := s.next(); c == '-' || c == '[' {
		s.failf("invalid sequence <!%c", c)
	}
	quote, depth := byte(0), 0
	for s.fail == nil {
		switch c := s.next(); {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>' && depth == 0:
			return
		case c == '>':
			depth--
		case c == '<' && s.skip("!--"):
			s.skipTo("-->")
		case c == '<':
			depth++
		}
	}
}

// isName reports whether b is a Name of XML 1.0 (fourth edition): valid
// UTF-8, a letter, '_' or ':' first, then also digits, '.', '-',
// combining characters and extenders.
func isName(b []byte) bool {
	for i := 0; i < len(b); {
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 || !inRanges(nameStart, r) && (i == 0 || !inRanges(nameRest, r)) {
			return false
		}
		i += size
	}
	return len(b) > 0
}

// inRanges reports whether r lies in one of the sorted inclusive ranges
// given as consecutive (low, high) pairs.
func inRanges(pairs []rune, r rune) bool {
	lo, hi := 0, len(pairs)/2
	for lo < hi {
		if m := (lo + hi) / 2; r > pairs[2*m+1] {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return 2*lo < len(pairs) && r >= pairs[2*lo]
}

// The name characters of XML 1.0's Appendix B as encoding/xml tabulates
// them — the accepted language is defined as equal to that decoder's,
// quirks of its tables included (TestNameTables compares every code
// point) — as (low, high) pairs: what may start a name, and what may
// only continue one.
var (
	nameStart = []rune("::AZ__az" +
		"\u00c0\u00d6\u00d8\u00f6\u00f8\u0131\u0134\u013e\u0141\u0148\u014a\u017e\u0180\u01c3\u01cd\u01f0" +
		"\u01f4\u01f5\u01fa\u0217\u0250\u02a8\u02bb\u02c1\u0386\u0386\u0388\u038a\u038c\u038c\u038e\u03a1" +
		"\u03a3\u03ce\u03d0\u03d6\u03da\u03da\u03dc\u03dc\u03de\u03de\u03e0\u03e0\u03e2\u03f3\u0401\u040c" +
		"\u040e\u044f\u0451\u045c\u045e\u0481\u0490\u04c4\u04c7\u04c8\u04cb\u04cc\u04d0\u04eb\u04ee\u04f5" +
		"\u04f8\u04f9\u0531\u0556\u0559\u0559\u0561\u0586\u05d0\u05ea\u05f0\u05f2\u0621\u063a\u0641\u064a" +
		"\u0671\u06b7\u06ba\u06be\u06c0\u06ce\u06d0\u06d3\u06d5\u06d5\u06e5\u06e6\u0905\u0939\u093d\u093d" +
		"\u0958\u0961\u0985\u098c\u098f\u0990\u0993\u09a8\u09aa\u09b0\u09b2\u09b2\u09b6\u09b9\u09dc\u09dd" +
		"\u09df\u09e1\u09f0\u09f1\u0a05\u0a0a\u0a0f\u0a10\u0a13\u0a28\u0a2a\u0a30\u0a32\u0a33\u0a35\u0a36" +
		"\u0a38\u0a39\u0a59\u0a5c\u0a5e\u0a5e\u0a72\u0a74\u0a85\u0a8b\u0a8d\u0a8d\u0a8f\u0a91\u0a93\u0aa8" +
		"\u0aaa\u0ab0\u0ab2\u0ab3\u0ab5\u0ab9\u0abd\u0abd\u0ae0\u0ae0\u0b05\u0b0c\u0b0f\u0b10\u0b13\u0b28" +
		"\u0b2a\u0b30\u0b32\u0b33\u0b36\u0b39\u0b3d\u0b3d\u0b5c\u0b5d\u0b5f\u0b61\u0b85\u0b8a\u0b8e\u0b90" +
		"\u0b92\u0b95\u0b99\u0b9a\u0b9c\u0b9c\u0b9e\u0b9f\u0ba3\u0ba4\u0ba8\u0baa\u0bae\u0bb5\u0bb7\u0bb9" +
		"\u0c05\u0c0c\u0c0e\u0c10\u0c12\u0c28\u0c2a\u0c33\u0c35\u0c39\u0c60\u0c61\u0c85\u0c8c\u0c8e\u0c90" +
		"\u0c92\u0ca8\u0caa\u0cb3\u0cb5\u0cb9\u0cde\u0cde\u0ce0\u0ce1\u0d05\u0d0c\u0d0e\u0d10\u0d12\u0d28" +
		"\u0d2a\u0d39\u0d60\u0d61\u0e01\u0e2e\u0e30\u0e30\u0e32\u0e33\u0e40\u0e45\u0e81\u0e82\u0e84\u0e84" +
		"\u0e87\u0e88\u0e8a\u0e8a\u0e8d\u0e8d\u0e94\u0e97\u0e99\u0e9f\u0ea1\u0ea3\u0ea5\u0ea5\u0ea7\u0ea7" +
		"\u0eaa\u0eab\u0ead\u0eae\u0eb0\u0eb0\u0eb2\u0eb3\u0ebd\u0ebd\u0ec0\u0ec4\u0f40\u0f47\u0f49\u0f69" +
		"\u10a0\u10c5\u10d0\u10f6\u1100\u1100\u1102\u1103\u1105\u1107\u1109\u1109\u110b\u110c\u110e\u1112" +
		"\u113c\u113c\u113e\u113e\u1140\u1140\u114c\u114c\u114e\u114e\u1150\u1150\u1154\u1155\u1159\u1159" +
		"\u115f\u1161\u1163\u1163\u1165\u1165\u1167\u1167\u1169\u1169\u116d\u116e\u1172\u1173\u1175\u1175" +
		"\u119e\u119e\u11a8\u11a8\u11ab\u11ab\u11ae\u11af\u11b7\u11b8\u11ba\u11ba\u11bc\u11c2\u11eb\u11eb" +
		"\u11f0\u11f0\u11f9\u11f9\u1e00\u1e9b\u1ea0\u1ef9\u1f00\u1f15\u1f18\u1f1d\u1f20\u1f45\u1f48\u1f4d" +
		"\u1f50\u1f57\u1f59\u1f59\u1f5b\u1f5b\u1f5d\u1f5d\u1f5f\u1f7d\u1f80\u1fb4\u1fb6\u1fbc\u1fbe\u1fbe" +
		"\u1fc2\u1fc4\u1fc6\u1fcc\u1fd0\u1fd3\u1fd6\u1fdb\u1fe0\u1fec\u1ff2\u1ff4\u1ff6\u1ffc\u2126\u2126" +
		"\u212a\u212b\u212e\u212e\u2180\u2182\u3007\u3007\u3021\u3029\u3041\u3094\u30a1\u30fa\u3105\u312c" +
		"\u4e00\u9fa5\uac00\ud7a3")
	nameRest = []rune("-.09" +
		"\u00b7\u00b7\u02d0\u02d1\u0300\u0345\u0360\u0361\u0387\u0387\u0483\u0486\u0591\u05a1\u05a3\u05b9" +
		"\u05bb\u05bd\u05bf\u05bf\u05c1\u05c2\u05c4\u05c4\u0640\u0640\u064b\u0652\u0660\u0669\u0670\u0670" +
		"\u06d6\u06e4\u06e7\u06e8\u06ea\u06ed\u06f0\u06f9\u0901\u0903\u093c\u093c\u093e\u094d\u0951\u0954" +
		"\u0962\u0963\u0966\u096f\u0981\u0983\u09bc\u09bc\u09be\u09c4\u09c7\u09c8\u09cb\u09cd\u09d7\u09d7" +
		"\u09e2\u09e3\u09e6\u09ef\u0a02\u0a02\u0a3c\u0a3c\u0a3e\u0a42\u0a47\u0a48\u0a4b\u0a4d\u0a66\u0a71" +
		"\u0a81\u0a83\u0abc\u0abc\u0abe\u0ac5\u0ac7\u0ac9\u0acb\u0acd\u0ae6\u0aef\u0b01\u0b03\u0b3c\u0b3c" +
		"\u0b3e\u0b43\u0b47\u0b48\u0b4b\u0b4d\u0b56\u0b57\u0b66\u0b6f\u0b82\u0b83\u0bbe\u0bc2\u0bc6\u0bc8" +
		"\u0bca\u0bcd\u0bd7\u0bd7\u0be7\u0bef\u0c01\u0c03\u0c3e\u0c44\u0c46\u0c48\u0c4a\u0c4d\u0c55\u0c56" +
		"\u0c66\u0c6f\u0c82\u0c83\u0cbe\u0cc4\u0cc6\u0cc8\u0cca\u0ccd\u0cd5\u0cd6\u0ce6\u0cef\u0d02\u0d03" +
		"\u0d3e\u0d43\u0d46\u0d48\u0d4a\u0d4d\u0d57\u0d57\u0d66\u0d6f\u0e31\u0e31\u0e34\u0e3a\u0e46\u0e4e" +
		"\u0e50\u0e59\u0eb1\u0eb1\u0eb4\u0eb9\u0ebb\u0ebc\u0ec6\u0ec6\u0ec8\u0ecd\u0ed0\u0ed9\u0f18\u0f19" +
		"\u0f20\u0f29\u0f35\u0f35\u0f37\u0f37\u0f39\u0f39\u0f3e\u0f3f\u0f71\u0f84\u0f86\u0f8b\u0f90\u0f95" +
		"\u0f97\u0f97\u0f99\u0fad\u0fb1\u0fb7\u0fb9\u0fb9\u20d0\u20dc\u20e1\u20e1\u3005\u3005\u302a\u302f" +
		"\u3031\u3035\u3099\u309a\u309d\u309e\u30fc\u30fe")
)
