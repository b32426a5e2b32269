package bat

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestDedupSorted(t *testing.T) {
	if got := SortDedup([]OID{5, 3, 5, 1, 3, 3}); !reflect.DeepEqual(got, []OID{1, 3, 5}) {
		t.Errorf("SortDedup = %v, want [1 3 5]", got)
	}
	oids := []OID{9, 2, 9}
	slices.Sort(oids)
	if got := DedupSorted(oids); !reflect.DeepEqual(got, []OID{2, 9}) {
		t.Errorf("sort+dedup = %v, want [2 9]", got)
	}
	if got := DedupSorted[OID](nil); got != nil {
		t.Errorf("DedupSorted(nil) = %v", got)
	}
	if got := DedupSorted([]int32{7}); !reflect.DeepEqual(got, []int32{7}) {
		t.Errorf("singleton = %v", got)
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []OID }{
		{[]OID{1, 3, 5, 7}, []OID{3, 4, 7, 9}, []OID{3, 7}},
		{[]OID{1, 2}, []OID{3, 4}, nil},
		{nil, []OID{1}, nil},
		{[]OID{2, 4}, []OID{2, 4}, []OID{2, 4}},
	}
	for _, c := range cases {
		if got := IntersectSorted(nil, c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// The posting-list instantiation: sorted association row ids.
	if got := IntersectSorted(nil, []int32{0, 2, 9}, []int32{2, 3, 9}); !reflect.DeepEqual(got, []int32{2, 9}) {
		t.Errorf("row-id intersect = %v, want [2 9]", got)
	}
	// Recycled destination: no allocation beyond dst's capacity.
	dst := make([]OID, 0, 8)
	out := IntersectSorted(dst, []OID{1, 2, 3}, []OID{2, 3, 4})
	if !reflect.DeepEqual(out, []OID{2, 3}) || &out[0] != &dst[:1][0] {
		t.Errorf("recycled dst not reused: %v", out)
	}
}

// TestIntersectSortedAgainstSets cross-checks the merge against the
// hash-set implementation on random inputs.
func TestIntersectSortedAgainstSets(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		draw := func() ([]OID, map[OID]bool) {
			set := map[OID]bool{}
			for i, n := 0, r.Intn(30); i < n; i++ {
				set[OID(r.Intn(40)+1)] = true
			}
			return slices.Sorted(maps.Keys(set)), set
		}
		a, as := draw()
		b, bs := draw()
		var want []OID
		for _, o := range a {
			if as[o] && bs[o] {
				want = append(want, o)
			}
		}
		got := IntersectSorted(nil, a, b)
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("trial %d: intersect %v vs %v", trial, got, want)
		}
	}
}
