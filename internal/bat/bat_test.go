package bat

import (
	"strings"
	"testing"
)

// pair is one (head, tail) association as the tests spell it.
type pair struct{ h, t OID }

// batOf builds a BAT from explicit pairs.
func batOf(name string, pairs ...pair) *BAT {
	b := NewWithCapacity(name, len(pairs))
	for _, p := range pairs {
		b.Append(p.h, p.t)
	}
	return b
}

// pairsOf lists a BAT's associations in order.
func pairsOf(b *BAT) []pair {
	out := make([]pair, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		out = append(out, pair{b.Head(i), b.Tail(i)})
	}
	return out
}

func TestNewAndAppend(t *testing.T) {
	b := New("r")
	if b.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", b.Len())
	}
	b.Append(1, 10)
	b.Append(2, 20)
	b.Append(1, 30)
	if b.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", b.Len())
	}
	if b.Head(0) != 1 || b.Tail(0) != 10 {
		t.Errorf("pair 0 = (%d,%d), want (1,10)", b.Head(0), b.Tail(0))
	}
	if b.Head(2) != 1 || b.Tail(2) != 30 {
		t.Errorf("pair 2 = (%d,%d), want (1,30)", b.Head(2), b.Tail(2))
	}
}

func TestString(t *testing.T) {
	b := batOf("r", pair{1, 2})
	if s := b.String(); !strings.Contains(s, "1->2") || !strings.Contains(s, "r") {
		t.Errorf("String() = %q, want it to mention the name and the pair", s)
	}
}
