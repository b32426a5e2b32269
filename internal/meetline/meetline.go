// Package meetline is the one grammar of a meet's NDJSON stream line —
// the bytes json.Marshal gives for {"meet": m}, and a newline — cut
// where what fixes the bytes changes: a head fixed by the member, the
// node, an infix fixed by the node's path, and the meet's own tail.
package meetline

import (
	"strconv"
	"unicode/utf8"

	"ncq/internal/bat"
)

// Plain marks the bytes encoding/json's HTML-escaping encoder copies
// into a string literal unchanged: printable ASCII and DEL, less the
// quote, the backslash and <, >, &.
var Plain = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal, escaped as
// json.Marshal escapes it.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if Plain[b] {
			i++
			continue
		}
		r, size := rune(b), 1
		if b >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
			if r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || size > 1) {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch r {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default: // other control bytes, <, >, &, U+2028, U+2029, and U+FFFD for an invalid byte
			dst = append(dst, '\\', 'u', hexDigits[r>>12], hexDigits[r>>8&0xF], hexDigits[r>>4&0xF], hexDigits[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendHead appends what a member fixes: the line's opening up to the
// node's number, the shard omitted at 0.
func AppendHead(dst []byte, source string, shard int) []byte {
	dst = appendString(append(dst, `{"meet":{"source":`...), source)
	if shard != 0 {
		dst = strconv.AppendInt(append(dst, `,"shard":`...), int64(shard), 10)
	}
	return append(dst, `,"node":`...)
}

// AppendInfix appends what a path fixes: the tag and the path, up to
// the witness list.
func AppendInfix(dst []byte, tag, path string) []byte {
	dst = appendString(append(dst, `,"tag":`...), tag)
	dst = appendString(append(dst, `,"path":`...), path)
	return append(dst, `,"witnesses":`...)
}

// AppendTail appends what the meet itself fixes, and closes the line:
// the witnesses (null when wits is nil), the distance and, when the
// meet is projected, the projected texts, each omitted when empty.
func AppendTail(dst []byte, wits []bat.OID, distance int, projected bool, value, xml string) []byte {
	if wits == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, w := range wits {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, uint64(w), 10)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"distance":`...), int64(distance), 10)
	if projected {
		dst = append(dst, `,"projected":{`...)
		if value != "" {
			dst = appendString(append(dst, `"value":`...), value)
		}
		if xml != "" {
			if value != "" {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `"xml":`...), xml)
		}
		dst = append(dst, '}')
	}
	return append(dst, "}}\n"...)
}
