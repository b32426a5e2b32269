package monetx

import "hash/maphash"

// Interner numbers strings: the first time a string is added it takes
// the next id, and every add records its string's id. It is an open-
// addressing table over the value list, whose slots hold a value's id
// plus one and an empty slot 0, kept at most half full: clearing it
// between uses is one memclr, where a map of strings costs a walk over
// every group on the upload's critical path. A loader with no indexer
// interns its part's values in one; an index builder interns the values
// fed to it in another, beside the parse.
type Interner struct {
	slots  []uint32
	values []string // the distinct strings, by id
	ids    []uint32 // the id of every string added, in the order added
}

// internSeed hashes values into every interning table.
var internSeed = maphash.MakeSeed()

// Add records v's id, interning v the first time it is added, and
// reports whether v is new.
func (in *Interner) Add(v string) (id uint32, fresh bool) {
	if 2*len(in.values) >= len(in.slots) {
		in.grow()
	}
	mask := uint64(len(in.slots) - 1)
	i := maphash.String(internSeed, v) & mask
	for ; in.slots[i] != 0; i = (i + 1) & mask {
		if id := in.slots[i] - 1; in.values[id] == v {
			in.ids = append(in.ids, id)
			return id, false
		}
	}
	id = uint32(len(in.values))
	in.slots[i] = id + 1
	in.values = append(in.values, v)
	in.ids = append(in.ids, id)
	return id, true
}

// grow doubles the table and places every value again.
func (in *Interner) grow() {
	in.slots = make([]uint32, max(1<<10, 2*len(in.slots)))
	mask := uint64(len(in.slots) - 1)
	for id, v := range in.values {
		i := maphash.String(internSeed, v) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = uint32(id) + 1
	}
}

// IDs returns the id of every string added, in the order added.
func (in *Interner) IDs() []uint32 { return in.ids }

// Values returns the distinct strings, by id.
func (in *Interner) Values() []string { return in.values }

// Reset empties in for its next use, dropping every string it holds,
// and reports whether it is worth keeping: one grown past MaxKeptRows
// strings is not, and is left as it is.
func (in *Interner) Reset() bool {
	if cap(in.values) > MaxKeptRows || cap(in.ids) > MaxKeptRows {
		return false
	}
	clear(in.values)
	clear(in.slots)
	in.values, in.ids = in.values[:0], in.ids[:0]
	return true
}
