package monetx

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
)

// oneString reports whether values are substrings of one string of
// exactly their bytes, laid end to end in id order, and whether the
// slice holds no spare capacity.
func oneString(values []string) bool {
	var next unsafe.Pointer
	for _, v := range values {
		if v == "" {
			continue // an empty substring may point anywhere in it
		}
		p := unsafe.Pointer(unsafe.StringData(v))
		if next != nil && p != next {
			return false
		}
		next = unsafe.Add(p, len(v))
	}
	return len(values) == cap(values)
}

// FuzzInterner interns a run of byte values with repeats, long enough
// to grow the table past its first size, in two uses of one Interner
// with a Reset between them. Each use is held to a map from value to
// id: the ids in the order added, whether each add was fresh, and the
// distinct values, in one exact string.
func FuzzInterner(f *testing.F) {
	f.Add([]byte("a\x00b\x00a"), uint16(7), uint16(3))
	f.Add([]byte("dblp\x00Bit\x00\x00x"), uint16(2000), uint16(1000))
	f.Add([]byte{}, uint16(600), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, n, cut uint16) {
		parts := bytes.Split(data, []byte{0})
		count := int(n) % 3000
		values := make([][]byte, count)
		for i := range values {
			// The parts cycle against 251 suffixes: up to 251 times as
			// many distinct values as parts, each seen again later.
			values[i] = append(bytes.Clone(parts[i%len(parts)]), byte(i*7%251))
		}
		var in Interner
		uses := [][][]byte{values[:min(int(cut), count)], values[min(int(cut), count):]}
		for use, vs := range uses {
			if use > 0 && !in.Reset() {
				t.Fatal("a small interner is not worth keeping")
			}
			ref := map[string]uint32{}
			var want []string
			var arena []byte
			for i, v := range vs {
				start := len(arena)
				arena = append(arena, v...)
				id, fresh := in.Add(arena, uint32(start), uint32(len(arena)))
				wantID, seen := ref[string(v)]
				if !seen {
					wantID = uint32(len(want))
					ref[string(v)] = wantID
					want = append(want, string(v))
				}
				if id != wantID || fresh == seen {
					t.Fatalf("use %d, add %d of %q: id %d fresh %v, want id %d fresh %v", use, i, v, id, fresh, wantID, !seen)
				}
			}
			ids := in.IDs()
			if len(ids) != len(vs) {
				t.Fatalf("use %d: %d ids for %d adds", use, len(ids), len(vs))
			}
			for i, v := range vs {
				if ids[i] != ref[string(v)] {
					t.Fatalf("use %d: ids[%d] = %d, want %d", use, i, ids[i], ref[string(v)])
				}
			}
			got := in.Values(arena)
			if !slices.Equal(got, want) {
				t.Fatalf("use %d: values %q, want %q", use, got, want)
			}
			if !oneString(got) {
				t.Fatalf("use %d: the values are not one exact string", use)
			}
		}
	})
}
