// Package bat implements binary association tables (BATs), the column
// substrate underneath the Monet XML storage model.
//
// The paper evaluates the meet operator on top of the Monet main-memory
// database server, whose execution model is built entirely from binary
// relations and a small algebra of operations on them (the MIL
// primitives of Boncz & Kersten, "MIL Primitives for Querying a
// Fragmented World", VLDB Journal 8(2), 1999). This package keeps the
// slice of that algebra this reproduction runs: the OID type every
// layer names nodes by; append-only OID×OID tables — the child→parent
// relations and the lifted input groups the BAT-join execution of
// Figure 4 (internal/experiments) works on — with that execution's
// three operators (join, tail intersection, tail anti-selection); and
// the sorted-slice primitives underneath the columnar hot path. The
// store itself keeps no BAT: its relations are its per-OID arrays and
// its association table (internal/monetx).
//
// A BAT is deliberately simple: two parallel slices and nothing else.
// All operations allocate their result; inputs are never mutated, which
// keeps the relational style of the paper's pseudocode easy to express
// and reason about.
package bat

import "fmt"

// OID is a unique object identifier for a node of the XML syntax tree.
// OIDs are assigned in depth-first document order starting at 1;
// Nil (zero) is reserved for "no object", e.g. the parent of the root.
type OID uint32

// Nil is the invalid OID. It is used as the parent of the document root
// and as the "no meet" result of bounded meet variants.
const Nil OID = 0

// BAT is a binary association table: an ordered multiset of (OID, OID)
// pairs. The zero value is not usable; construct with New.
//
// Concurrency: a fully built BAT (no further Append calls) is safe for
// concurrent readers. Appending concurrently with anything else is not.
type BAT struct {
	name string
	head []OID
	tail []OID
}

// New returns an empty BAT with the given relation name. In the Monet
// transform the name is the path of the association type (Definition 4
// of the paper), e.g. "/bibliography/institute/article".
func New(name string) *BAT {
	return &BAT{name: name}
}

// NewWithCapacity returns an empty BAT pre-sized for n pairs.
func NewWithCapacity(name string, n int) *BAT {
	return &BAT{
		name: name,
		head: make([]OID, 0, n),
		tail: make([]OID, 0, n),
	}
}

// Len returns the number of pairs in the BAT.
func (b *BAT) Len() int { return len(b.head) }

// Append adds one association.
func (b *BAT) Append(h, t OID) {
	b.head = append(b.head, h)
	b.tail = append(b.tail, t)
}

// Head returns the head value at position i.
func (b *BAT) Head(i int) OID { return b.head[i] }

// Tail returns the tail value at position i.
func (b *BAT) Tail(i int) OID { return b.tail[i] }

// String renders the BAT in a compact [name: h->t, ...] form for
// debugging and test failure messages.
func (b *BAT) String() string {
	s := fmt.Sprintf("[%s:", b.name)
	for i := range b.head {
		s += fmt.Sprintf(" %d->%d", b.head[i], b.tail[i])
	}
	return s + "]"
}
