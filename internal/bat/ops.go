package bat

// This file holds the relational operations of the MIL-primitive slice
// the BAT-join execution of the set-oriented meet (Figure 4, in
// internal/experiments) runs on: the join that lifts an association
// BAT one level, the intersection of current ancestors and the
// anti-selection that removes matched elements.
//
// All operations are non-destructive: they allocate their result and
// leave the operands untouched, mirroring the bulk operator-at-a-time
// execution model of the Monet server the paper ran on.

// Join composes a with b over a's tail and b's head:
//
//	Join(a, b) = { (h, t) | (h, x) in a, (x, t) in b }
//
// This is the paper's "binary join on associations" from Section 3.2:
// joining an association BAT with the parent BAT lifts a set of objects
// one level towards the root while the head keeps the provenance.
// Pairs are produced in the order of a, expanding multiple matches in
// b's insertion order.
func Join[T comparable](a *BAT[OID], b *BAT[T]) *BAT[T] {
	b.buildIndex()
	out := NewWithCapacity[T](a.name+"*"+b.name, a.Len())
	for i := range a.head {
		if pos, ok := b.index[a.tail[i]]; ok {
			for _, p := range pos {
				out.Append(a.head[i], b.tail[p])
			}
		}
	}
	return out
}

// IntersectTails returns the set of OIDs occurring as tails of both a
// and b. This is the D := O1 ∩ O2 step of Figure 4 when the lifted
// current-ancestor column is the tail.
func IntersectTails(a, b *BAT[OID]) map[OID]struct{} {
	at := make(map[OID]struct{}, len(a.tail))
	for _, t := range a.tail {
		at[t] = struct{}{}
	}
	out := map[OID]struct{}{}
	for _, t := range b.tail {
		if _, ok := at[t]; ok {
			out[t] = struct{}{}
		}
	}
	return out
}

// SelectTailNotIn keeps the pairs of a whose tail is not in keys — the
// "remove matched elements" step of Figure 4.
func SelectTailNotIn(a *BAT[OID], keys map[OID]struct{}) *BAT[OID] {
	out := New[OID](a.name + "/notin")
	for i := range a.tail {
		if _, ok := keys[a.tail[i]]; !ok {
			out.Append(a.head[i], a.tail[i])
		}
	}
	return out
}
