package wire

import "ncq"

// DecodeCanonicalMeet lets the external tests, which can start a real
// node, ask the fast path for its verdict on a line.
func DecodeCanonicalMeet(b []byte) bool { return decodeCanonicalMeet(b, new(ncq.CorpusMeet)) }
