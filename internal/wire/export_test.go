package wire

// DecodeCanonicalMeet lets the external tests, which can start a real
// node, ask the fast path for its verdict on a line.
var DecodeCanonicalMeet = decodeCanonicalMeet
