package bat

// Property-based tests: every relational operation is checked against a
// straightforward map/nested-loop reference implementation on random
// inputs generated by testing/quick.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randBAT draws a small random OID×OID BAT with heads and tails in
// [1,16] so that joins and intersections actually hit.
func randBAT(r *rand.Rand, name string) *BAT {
	n := r.Intn(24)
	b := New(name)
	for i := 0; i < n; i++ {
		b.Append(OID(r.Intn(16)+1), OID(r.Intn(16)+1))
	}
	return b
}

type randPairBATs struct{ A, B *BAT }

// Generate implements quick.Generator.
func (randPairBATs) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randPairBATs{randBAT(r, "a"), randBAT(r, "b")})
}

func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	f := func(in randPairBATs) bool {
		got := pairsOf(Join(in.A, in.B))
		var want []pair
		for i := 0; i < in.A.Len(); i++ {
			for j := 0; j < in.B.Len(); j++ {
				if in.A.Tail(i) == in.B.Head(j) {
					want = append(want, pair{in.A.Head(i), in.B.Tail(j)})
				}
			}
		}
		// Compare as multisets: hash join emits per-probe in a's order,
		// expanding matches in b order — same as the nested loop with a
		// outer. Order should match exactly here.
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectTailsSymmetric(t *testing.T) {
	f := func(in randPairBATs) bool {
		return reflect.DeepEqual(IntersectTails(in.A, in.B), IntersectTails(in.B, in.A))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
