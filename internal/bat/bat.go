// Package bat implements binary association tables (BATs), the column
// substrate underneath the Monet XML storage model.
//
// The paper evaluates the meet operator on top of the Monet main-memory
// database server, whose execution model is built entirely from binary
// relations and a small algebra of operations on them (the MIL
// primitives of Boncz & Kersten, "MIL Primitives for Querying a
// Fragmented World", VLDB Journal 8(2), 1999). This package keeps the
// slice of that algebra this reproduction runs: append-only binary
// tables with an OID head column and a typed tail column — the string
// relations of the store, and the edge and parent relations it derives
// as views — plus the three operators of the BAT-join execution of
// Figure 4 (join, tail intersection, tail anti-selection), and the
// sorted-slice primitives underneath the columnar hot path.
//
// A BAT is deliberately simple: two parallel slices and nothing else,
// so what a store keeps resident is what it counts. All operations
// allocate their result; inputs are never mutated, which keeps the
// relational style of the paper's pseudocode easy to express and reason
// about.
package bat

import (
	"fmt"
	"slices"
)

// OID is a unique object identifier for a node of the XML syntax tree.
// OIDs are assigned in depth-first document order starting at 1;
// Nil (zero) is reserved for "no object", e.g. the parent of the root.
type OID uint32

// Nil is the invalid OID. It is used as the parent of the document root
// and as the "no meet" result of bounded meet variants.
const Nil OID = 0

// BAT is a binary association table: an ordered multiset of (OID, T)
// pairs. The zero value is not usable; construct with New.
//
// Concurrency: a fully loaded BAT (no further Append calls) is safe for
// concurrent readers: reading builds nothing. Appending concurrently
// with anything else is not.
type BAT[T comparable] struct {
	name string
	head []OID
	tail []T
}

// New returns an empty BAT with the given relation name. In the Monet
// transform the name is the path of the association type (Definition 4
// of the paper), e.g. "/bibliography/institute/article".
func New[T comparable](name string) *BAT[T] {
	return &BAT[T]{name: name}
}

// NewWithCapacity returns an empty BAT pre-sized for n pairs. Bulk
// loaders use it to avoid repeated growth while streaming a document.
func NewWithCapacity[T comparable](name string, n int) *BAT[T] {
	return &BAT[T]{
		name: name,
		head: make([]OID, 0, n),
		tail: make([]T, 0, n),
	}
}

// Len returns the number of pairs in the BAT.
func (b *BAT[T]) Len() int { return len(b.head) }

// Append adds one association.
func (b *BAT[T]) Append(h OID, t T) {
	b.head = append(b.head, h)
	b.tail = append(b.tail, t)
}

// Head returns the head value at position i.
func (b *BAT[T]) Head(i int) OID { return b.head[i] }

// Tail returns the tail value at position i.
func (b *BAT[T]) Tail(i int) T { return b.tail[i] }

// Find returns the tail of the first pair whose head equals h. The
// boolean reports whether such a pair exists. The heads must ascend:
// Find is a binary search over them, the paper's look-up
// of an owner's value without a structure beside the columns.
func (b *BAT[T]) Find(h OID) (T, bool) {
	if i, ok := slices.BinarySearch(b.head, h); ok {
		return b.tail[i], true
	}
	var zero T
	return zero, false
}

// String renders the BAT in a compact [name: h->t, ...] form for
// debugging and test failure messages.
func (b *BAT[T]) String() string {
	s := fmt.Sprintf("[%s:", b.name)
	for i := range b.head {
		s += fmt.Sprintf(" %d->%v", b.head[i], b.tail[i])
	}
	return s + "]"
}

// MemBytes estimates the memory footprint of the BAT's columns in
// bytes. String tails count the string headers only; the monetx store
// adds character data separately.
func (b *BAT[T]) MemBytes() int {
	var t T
	return len(b.head)*4 + len(b.tail)*sizeofTail(t)
}

func sizeofTail(v any) int {
	switch v.(type) {
	case OID:
		return 4
	case int, int64, uint64:
		return 8
	case int32, uint32:
		return 4
	case string:
		return 16
	default:
		return 8
	}
}
