package wire

import (
	"ncq"
	"ncq/internal/meetline"
)

// plainByte is the line grammar's table of the bytes a string literal
// carries unescaped.
var plainByte = &meetline.Plain

// DecodeCanonicalMeet lets the external tests, which can start a real
// node, ask the fast path for its verdict on a line.
func DecodeCanonicalMeet(b []byte) bool { return decodeCanonicalMeet(b, new(ncq.CorpusMeet)) }
