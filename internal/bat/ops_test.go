package bat

import (
	"reflect"
	"testing"
)

func TestJoin(t *testing.T) {
	// a: provenance -> current, b: current -> parent.
	a := batOf("a", pair[OID]{10, 1}, pair[OID]{11, 2}, pair[OID]{12, 3})
	b := batOf("b", pair[OID]{1, 100}, pair[OID]{2, 200}, pair[OID]{4, 400})
	got := Join(a, b)
	want := []pair[OID]{{10, 100}, {11, 200}}
	if !reflect.DeepEqual(pairsOf(got), want) {
		t.Errorf("Join = %v, want %v", pairsOf(got), want)
	}
}

func TestJoinExpandsMultipleMatches(t *testing.T) {
	a := batOf("a", pair[OID]{10, 1})
	b := batOf("b", pair[string]{1, "x"}, pair[string]{1, "y"})
	got := Join(a, b)
	want := []pair[string]{{10, "x"}, {10, "y"}}
	if !reflect.DeepEqual(pairsOf(got), want) {
		t.Errorf("Join = %v, want %v", pairsOf(got), want)
	}
}

func TestJoinEmpty(t *testing.T) {
	a := New[OID]("a")
	b := batOf("b", pair[OID]{1, 2})
	if got := Join(a, b); got.Len() != 0 {
		t.Errorf("Join(empty, b).Len() = %d, want 0", got.Len())
	}
	if got := Join(b, a); got.Len() != 0 {
		t.Errorf("Join(b, empty).Len() = %d, want 0", got.Len())
	}
}

func TestIntersectTails(t *testing.T) {
	a := batOf("a", pair[OID]{1, 100}, pair[OID]{2, 200})
	b := batOf("b", pair[OID]{3, 200}, pair[OID]{4, 300})
	got := IntersectTails(a, b)
	if want := map[OID]struct{}{200: {}}; !reflect.DeepEqual(got, want) {
		t.Errorf("IntersectTails = %v, want {200}", got)
	}
}

func TestSelectTailInNotIn(t *testing.T) {
	a := batOf("a", pair[OID]{1, 100}, pair[OID]{2, 200}, pair[OID]{3, 300})
	keys := map[OID]struct{}{100: {}, 300: {}}
	out := SelectTailNotIn(a, keys)
	if want := []pair[OID]{{2, 200}}; !reflect.DeepEqual(pairsOf(out), want) {
		t.Errorf("SelectTailNotIn = %v, want %v", pairsOf(out), want)
	}
}
