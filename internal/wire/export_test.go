package wire

import (
	"ncq"
	"ncq/internal/meetline"
)

// plainByte is the line grammar's table of the bytes a string literal
// carries unescaped.
var plainByte = &meetline.Plain

// RelaysCanonical lets the external tests, which can start a real node,
// ask the relay's strict reader for its verdict on a line.
func RelaysCanonical(b []byte) bool {
	_, ok := parseCanonicalMeet(b, new(ncq.CorpusMeet))
	return ok
}
