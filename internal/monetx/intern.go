package monetx

import (
	"bytes"
	"hash/maphash"
	"strings"
)

// Interner numbers byte strings: the first time a value is added it
// takes the next id, and every add records its value's id. The values
// lie in the caller's append-only arena, addressed by offsets: every
// arena handed to one use is a prefix of the next, or the same bytes
// again, so an offset names the same bytes in each. It is an open-
// addressing table over the distinct values' spans, whose slots hold a
// value's id plus one and an empty slot 0, kept at most half full:
// clearing it between uses is one memclr, where a map of strings costs
// a walk over every group on the upload's critical path. A loader with
// no indexer interns its part's values in one; an index builder interns
// the values fed to it in another, beside the parse.
type Interner struct {
	slots []uint32
	spans []span   // where each distinct value first lies in the arena, by id
	ids   []uint32 // the id of every value added, in the order added
}

// span is a value's place in the arena: arena[start:end].
type span struct{ start, end uint32 }

// internSeed hashes values into every interning table.
var internSeed = maphash.MakeSeed()

// Add records the id of arena[start:end], interning it the first time
// it is added, and reports whether it is new.
func (in *Interner) Add(arena []byte, start, end uint32) (id uint32, fresh bool) {
	if 2*len(in.spans) >= len(in.slots) {
		in.grow(arena)
	}
	v := arena[start:end]
	mask := uint64(len(in.slots) - 1)
	i := maphash.Bytes(internSeed, v) & mask
	for ; in.slots[i] != 0; i = (i + 1) & mask {
		if id := in.slots[i] - 1; bytes.Equal(arena[in.spans[id].start:in.spans[id].end], v) {
			in.ids = append(in.ids, id)
			return id, false
		}
	}
	id = uint32(len(in.spans))
	in.slots[i] = id + 1
	in.spans = append(in.spans, span{start, end})
	in.ids = append(in.ids, id)
	return id, true
}

// grow doubles the table and places every value again.
func (in *Interner) grow(arena []byte) {
	in.slots = make([]uint32, max(1<<10, 2*len(in.slots)))
	mask := uint64(len(in.slots) - 1)
	for id, sp := range in.spans {
		i := maphash.Bytes(internSeed, arena[sp.start:sp.end]) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = uint32(id) + 1
	}
}

// IDs returns the id of every value added, in the order added.
func (in *Interner) IDs() []uint32 { return in.ids }

// Values returns the distinct values, by id, read from arena — the last
// one handed to Add, or a longer one — as substrings of one string of
// exactly their bytes: a part's values cost one allocation beside the
// slice. The slice is new and exactly as long as it holds.
func (in *Interner) Values(arena []byte) []string {
	n := 0
	for _, sp := range in.spans {
		n += int(sp.end - sp.start)
	}
	var b strings.Builder
	b.Grow(n)
	for _, sp := range in.spans {
		b.Write(arena[sp.start:sp.end])
	}
	all := b.String()
	values := make([]string, len(in.spans))
	off := 0
	for id, sp := range in.spans {
		next := off + int(sp.end-sp.start)
		values[id], off = all[off:next], next
	}
	return values
}

// Reset empties in for its next use and reports whether it is worth
// keeping: one grown past MaxKeptRows values is not, and is left as it
// is.
func (in *Interner) Reset() bool {
	if cap(in.spans) > MaxKeptRows || cap(in.ids) > MaxKeptRows {
		return false
	}
	clear(in.slots)
	in.spans, in.ids = in.spans[:0], in.ids[:0]
	return true
}
