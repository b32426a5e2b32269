package bat

import (
	"reflect"
	"testing"
)

func TestJoin(t *testing.T) {
	// a: provenance -> current, b: current -> parent.
	a := batOf("a", pair{10, 1}, pair{11, 2}, pair{12, 3})
	b := batOf("b", pair{1, 100}, pair{2, 200}, pair{4, 400})
	got := Join(a, b)
	want := []pair{{10, 100}, {11, 200}}
	if !reflect.DeepEqual(pairsOf(got), want) {
		t.Errorf("Join = %v, want %v", pairsOf(got), want)
	}
}

func TestJoinExpandsMultipleMatches(t *testing.T) {
	a := batOf("a", pair{10, 1})
	b := batOf("b", pair{1, 100}, pair{1, 200})
	got := Join(a, b)
	want := []pair{{10, 100}, {10, 200}}
	if !reflect.DeepEqual(pairsOf(got), want) {
		t.Errorf("Join = %v, want %v", pairsOf(got), want)
	}
}

func TestJoinEmpty(t *testing.T) {
	a := New("a")
	b := batOf("b", pair{1, 2})
	if got := Join(a, b); got.Len() != 0 {
		t.Errorf("Join(empty, b).Len() = %d, want 0", got.Len())
	}
	if got := Join(b, a); got.Len() != 0 {
		t.Errorf("Join(b, empty).Len() = %d, want 0", got.Len())
	}
}

func TestIntersectTails(t *testing.T) {
	a := batOf("a", pair{1, 100}, pair{2, 200})
	b := batOf("b", pair{3, 200}, pair{4, 300})
	got := IntersectTails(a, b)
	if want := map[OID]struct{}{200: {}}; !reflect.DeepEqual(got, want) {
		t.Errorf("IntersectTails = %v, want {200}", got)
	}
}

func TestSelectTailInNotIn(t *testing.T) {
	a := batOf("a", pair{1, 100}, pair{2, 200}, pair{3, 300})
	keys := map[OID]struct{}{100: {}, 300: {}}
	out := SelectTailNotIn(a, keys)
	if want := []pair{{2, 200}}; !reflect.DeepEqual(pairsOf(out), want) {
		t.Errorf("SelectTailNotIn = %v, want %v", pairsOf(out), want)
	}
}
