package bat

import (
	"strings"
	"testing"
)

// pair is one (head, tail) association as the tests spell it.
type pair[T comparable] struct {
	h OID
	t T
}

// batOf builds a BAT from explicit pairs.
func batOf[T comparable](name string, pairs ...pair[T]) *BAT[T] {
	b := NewWithCapacity[T](name, len(pairs))
	for _, p := range pairs {
		b.Append(p.h, p.t)
	}
	return b
}

// pairsOf lists a BAT's associations in order.
func pairsOf[T comparable](b *BAT[T]) []pair[T] {
	out := make([]pair[T], 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		out = append(out, pair[T]{b.Head(i), b.Tail(i)})
	}
	return out
}

func TestNewAndAppend(t *testing.T) {
	b := New[string]("r")
	if b.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", b.Len())
	}
	b.Append(1, "a")
	b.Append(2, "b")
	b.Append(1, "c")
	if b.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", b.Len())
	}
	if b.Head(0) != 1 || b.Tail(0) != "a" {
		t.Errorf("pair 0 = (%d,%q), want (1,a)", b.Head(0), b.Tail(0))
	}
	if b.Head(2) != 1 || b.Tail(2) != "c" {
		t.Errorf("pair 2 = (%d,%q), want (1,c)", b.Head(2), b.Tail(2))
	}
}

func TestFind(t *testing.T) {
	b := batOf("r", pair[string]{1, "a"}, pair[string]{2, "b"}, pair[string]{1, "c"})
	got, ok := b.Find(1)
	if !ok || got != "a" {
		t.Errorf("Find(1) = (%q,%v), want (a,true)", got, ok)
	}
	if _, ok := b.Find(9); ok {
		t.Error("Find(9) reported present, want absent")
	}
}

func TestFindAfterAppendRebuildsIndex(t *testing.T) {
	b := New[string]("r")
	b.Append(1, "a")
	if _, ok := b.Find(2); ok {
		t.Fatal("Find(2) before append reported present")
	}
	b.Append(2, "b")
	got, ok := b.Find(2)
	if !ok || got != "b" {
		t.Errorf("Find(2) after append = (%q,%v), want (b,true)", got, ok)
	}
}

func TestString(t *testing.T) {
	b := batOf("r", pair[OID]{1, 2})
	if s := b.String(); !strings.Contains(s, "1->2") || !strings.Contains(s, "r") {
		t.Errorf("String() = %q, want it to mention the name and the pair", s)
	}
}

func TestMemBytes(t *testing.T) {
	oo := batOf("oo", pair[OID]{1, 2}, pair[OID]{3, 4})
	if got := oo.MemBytes(); got != 2*(4+4) {
		t.Errorf("MemBytes oid×oid = %d, want 16", got)
	}
	os := batOf("os", pair[string]{1, "x"})
	if got := os.MemBytes(); got != 4+16 {
		t.Errorf("MemBytes oid×string = %d, want 20", got)
	}
	oi := batOf("oi", pair[int]{1, 7})
	if got := oi.MemBytes(); got != 4+8 {
		t.Errorf("MemBytes oid×int = %d, want 12", got)
	}
}
