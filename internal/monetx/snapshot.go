package monetx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"strings"

	"ncq/internal/bat"
	"ncq/internal/pathsum"
)

// Snapshots persist a loaded store without the XML parse and shred: the
// path summary, the per-OID arrays and the string relations are written
// in a little-endian binary format; the per-path OID lists are derived
// from those on read, as they are on load. The snapshot of a store
// reloads into a store that answers every query identically.
//
// Layout (all integers little-endian):
//
//	magic "NCQSNAP2"
//	u32 shard | u32 shards        — per-shard framing
//	u32 root
//	u32 nPaths { i32 parent | u8 kind | u32 labelLen | label }
//	u32 nOIDs  { u32 parent }* { i32 pathOf }* { i32 depth }*
//	           { i32 rank }* { u32 end }*
//	u32 nRels  { i32 path | u32 n { u32 owner | u32 valLen | val }* }
//	u32 crc32  — IEEE checksum of everything after the magic
//
// The decoder never trusts a declared length: every count and string
// length is consumed through bounded chunks, so a hostile header can
// only make it allocate what the input actually contains.

// snapshotMagic identifies the format and its version. The gob-based
// version 1 format ("NCQSNAP1"-less, self-describing) is gone; bumping
// the magic is the version guard.
const snapshotMagic = "NCQSNAP2"

// snapChunk bounds what the decoder allocates ahead of the input bytes
// backing it: a string or an array is read snapChunk bytes at a time,
// and an array's slice starts at most snapChunk bytes long and at most
// doubles, so it is never more than twice what has been read.
const snapChunk = 64 << 10

// maxSnapshotLabel bounds a single path label or attribute value. It is
// a sanity limit, not a capacity plan: labels are element/attribute
// names and values are attribute/cdata strings.
const maxSnapshotLabel = 1 << 24

type snapWriter struct {
	w   *bufio.Writer
	h   hash.Hash32
	b   [8]byte
	err error
}

func (sw *snapWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	if _, err := sw.w.Write(p); err != nil {
		sw.err = err
		return
	}
	sw.h.Write(p)
}

func (sw *snapWriter) u8(v uint8)   { sw.b[0] = v; sw.write(sw.b[:1]) }
func (sw *snapWriter) u32(v uint32) { binary.LittleEndian.PutUint32(sw.b[:4], v); sw.write(sw.b[:4]) }
func (sw *snapWriter) i32(v int32)  { sw.u32(uint32(v)) }
func (sw *snapWriter) str(s string) { sw.u32(uint32(len(s))); sw.write([]byte(s)) }

// WriteSnapshot serialises the store to w as a standalone (single
// shard) snapshot.
func (s *Store) WriteSnapshot(w io.Writer) error {
	return s.WriteSnapshotShard(w, 0, 1)
}

// WriteSnapshotShard serialises the store to w framed as shard
// `shard` of a `shards`-way sharded document. The framing is carried
// verbatim and returned by ReadSnapshotShard; it does not change how
// the store itself is encoded.
func (s *Store) WriteSnapshotShard(w io.Writer, shard, shards int) error {
	if shards < 1 || shard < 0 || shard >= shards {
		return fmt.Errorf("monetx: write snapshot: bad framing %d/%d", shard, shards)
	}
	sw := &snapWriter{w: bufio.NewWriter(w), h: crc32.NewIEEE()}
	if _, err := sw.w.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("monetx: write snapshot: %w", err)
	}
	sw.u32(uint32(shard))
	sw.u32(uint32(shards))
	sw.u32(uint32(s.root))

	paths := s.summary.AllPaths()
	sw.u32(uint32(len(paths)))
	for _, pid := range paths {
		sw.i32(int32(s.summary.Parent(pid)))
		sw.u8(uint8(s.summary.Kind(pid)))
		sw.str(s.summary.Label(pid))
	}

	n := len(s.parent)
	sw.u32(uint32(n))
	for i := 0; i < n; i++ {
		sw.u32(uint32(s.parent[i]))
	}
	for i := 0; i < n; i++ {
		sw.i32(int32(s.pathOf[i]))
	}
	for i := 0; i < n; i++ {
		sw.i32(s.depth[i])
	}
	for i := 0; i < n; i++ {
		sw.i32(s.rank[i])
	}
	for i := 0; i < n; i++ {
		sw.u32(uint32(s.end[i]))
	}

	var rels []pathsum.PathID
	for _, pid := range paths {
		if s.summary.Kind(pid) == pathsum.Attr && s.strs[pid] != nil {
			rels = append(rels, pid)
		}
	}
	sw.u32(uint32(len(rels)))
	for _, pid := range rels {
		rel := s.strs[pid]
		sw.i32(int32(pid))
		sw.u32(uint32(rel.Len()))
		for i := 0; i < rel.Len(); i++ {
			sw.u32(uint32(rel.Head(i)))
			sw.str(rel.Tail(i))
		}
	}

	if sw.err != nil {
		return fmt.Errorf("monetx: write snapshot: %w", sw.err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sw.h.Sum32())
	if _, err := sw.w.Write(crc[:]); err != nil {
		return fmt.Errorf("monetx: write snapshot: %w", err)
	}
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("monetx: write snapshot: %w", err)
	}
	return nil
}

type snapReader struct {
	r   *bufio.Reader
	h   hash.Hash32
	b   [8]byte
	buf []byte // what chunks are read into, at most snapChunk bytes
}

func (sr *snapReader) read(p []byte) error {
	if _, err := io.ReadFull(sr.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("truncated input")
		}
		return err
	}
	sr.h.Write(p)
	return nil
}

// chunk reads the next n <= snapChunk bytes into the reader's buffer,
// which they stay in until the next chunk is read.
func (sr *snapReader) chunk(n int) ([]byte, error) {
	if cap(sr.buf) < n {
		sr.buf = make([]byte, n)
	}
	p := sr.buf[:n]
	return p, sr.read(p)
}

func (sr *snapReader) u8() (uint8, error) {
	if err := sr.read(sr.b[:1]); err != nil {
		return 0, err
	}
	return sr.b[0], nil
}

func (sr *snapReader) u32() (uint32, error) {
	if err := sr.read(sr.b[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(sr.b[:4]), nil
}

func (sr *snapReader) i32() (int32, error) {
	v, err := sr.u32()
	return int32(v), err
}

// str reads a length-prefixed string. The declared length is checked
// against a sanity cap and the bytes are consumed in bounded chunks,
// so a hostile length cannot trigger a large allocation the input does
// not back; a string of at most one chunk is copied once, from the
// reader's buffer into the string.
func (sr *snapReader) str(what string) (string, error) {
	n, err := sr.u32()
	if err != nil {
		return "", err
	}
	if n > maxSnapshotLabel {
		return "", fmt.Errorf("%s length %d exceeds limit", what, n)
	}
	var out strings.Builder
	out.Grow(min(int(n), snapChunk))
	for remaining := int(n); remaining > 0; {
		p, err := sr.chunk(min(remaining, snapChunk))
		if err != nil {
			return "", err
		}
		out.Write(p)
		remaining -= len(p)
	}
	return out.String(), nil
}

// words reads a declared-count array of 4-byte little-endian words
// straight into a []T, chunk by chunk. The array starts at most
// snapChunk bytes long and at most doubles, so the decoder allocates
// no more than snapChunk bytes, or as many as it has consumed, ahead of
// the bytes it has read: a hostile count fails on read, not on make.
func words[T ~uint32 | ~int32](sr *snapReader, count int) ([]T, error) {
	const per = 4
	out := make([]T, 0, min(count, snapChunk/per))
	for len(out) < count {
		p, err := sr.chunk(min(count-len(out), snapChunk/per) * per)
		if err != nil {
			return nil, err
		}
		c := len(p) / per
		if len(out)+c > cap(out) {
			out = append(make([]T, 0, min(count, 2*cap(out))), out...)
		}
		out = out[:len(out)+c]
		dst := out[len(out)-c:]
		for i := range dst {
			dst[i] = T(binary.LittleEndian.Uint32(p[i*per:]))
		}
	}
	return out, nil
}

// checkTree holds the per-OID arrays to one tree, in one preorder pass.
// Contains reads ancestry off the intervals, the roll-up walks the
// parent array against them, and ContainsViaJoins and the emitter
// read the depths, so all three must describe the same tree: OID 1 is
// the root, at depth 0, its interval spanning every OID; every
// other node's parent is the innermost interval still open at it, its
// interval nests in its parent's, and its depth is one more. The
// innermost open interval at o is found by walking up from o-1 past
// the intervals that closed before o; no node is walked past twice, so
// the pass is O(n). It relies on the per-OID checks before it: every
// parent is an earlier node and every interval ends inside the arrays.
func checkTree(parent []bat.OID, depth []int32, end []bat.OID) error {
	n := len(parent)
	if depth[1] != 0 || int(end[1]) != n-1 {
		return fmt.Errorf("root OID 1 at depth %d spans 1..%d, not every OID 1..%d", depth[1], end[1], n-1)
	}
	for o := bat.OID(2); int(o) < n; o++ {
		p, open := parent[o], o-1
		for end[open] < o {
			if open == p {
				return fmt.Errorf("OID %d lies past the end %d of its parent %d's interval", o, end[p], p)
			}
			open = parent[open]
		}
		switch {
		case open != p:
			return fmt.Errorf("OID %d has parent %d, but the innermost interval open at it is %d's", o, p, open)
		case end[o] > end[p]:
			return fmt.Errorf("OID %d's interval end %d reaches past its parent %d's end %d", o, end[o], p, end[p])
		case depth[o] != depth[p]+1:
			return fmt.Errorf("OID %d has depth %d under parent %d at depth %d", o, depth[o], p, depth[p])
		}
	}
	return nil
}

// ReadSnapshot deserialises a store written by WriteSnapshot,
// discarding the shard framing.
func ReadSnapshot(r io.Reader) (*Store, error) {
	s, _, _, err := ReadSnapshotShard(r)
	return s, err
}

// ReadSnapshotShard deserialises a store written by WriteSnapshotShard
// and returns the shard framing alongside it.
func ReadSnapshotShard(r io.Reader) (store *Store, shard, shards int, err error) {
	s, shard, shards, err := readSnapshot(r)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("monetx: read snapshot: %w", err)
	}
	return s, shard, shards, nil
}

func readSnapshot(r io.Reader) (*Store, int, int, error) {
	sr := &snapReader{r: bufio.NewReader(r), h: crc32.NewIEEE()}
	var m [len(snapshotMagic)]byte
	if _, err := io.ReadFull(sr.r, m[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("missing magic: truncated input")
	}
	if string(m[:]) != snapshotMagic {
		return nil, 0, 0, fmt.Errorf("bad magic %q (not a snapshot, or an old format)", m[:])
	}
	shardU, err := sr.u32()
	if err != nil {
		return nil, 0, 0, err
	}
	shardsU, err := sr.u32()
	if err != nil {
		return nil, 0, 0, err
	}
	if shardsU == 0 || shardU >= shardsU || shardsU > 1<<16 {
		return nil, 0, 0, fmt.Errorf("bad shard framing %d/%d", shardU, shardsU)
	}
	rootU, err := sr.u32()
	if err != nil {
		return nil, 0, 0, err
	}

	nPathsU, err := sr.u32()
	if err != nil {
		return nil, 0, 0, err
	}
	summary := pathsum.New()
	for i := 0; i < int(nPathsU); i++ {
		parent, err := sr.i32()
		if err != nil {
			return nil, 0, 0, err
		}
		kind, err := sr.u8()
		if err != nil {
			return nil, 0, 0, err
		}
		if kind > uint8(pathsum.Attr) {
			return nil, 0, 0, fmt.Errorf("path %d: unknown kind %d", i, kind)
		}
		label, err := sr.str("path label")
		if err != nil {
			return nil, 0, 0, fmt.Errorf("path %d: %w", i, err)
		}
		if parent != -1 && (parent < 0 || int(parent) >= i) {
			return nil, 0, 0, fmt.Errorf("path %d: parent %d out of range", i, parent)
		}
		id, err := summary.Intern(pathsum.PathID(parent), label, pathsum.Kind(kind))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("path %d: %w", i, err)
		}
		if int(id) != i {
			return nil, 0, 0, fmt.Errorf("path %d re-interned as %d (duplicate entry)", i, id)
		}
	}
	nPaths := summary.Len()

	nU, err := sr.u32()
	if err != nil {
		return nil, 0, 0, err
	}
	n := int(nU)
	if n < 2 {
		return nil, 0, 0, fmt.Errorf("store has %d OIDs, need at least 2", n)
	}
	s := &Store{summary: summary, root: bat.OID(rootU)}
	if s.parent, err = words[bat.OID](sr, n); err != nil {
		return nil, 0, 0, fmt.Errorf("parent array: %w", err)
	}
	if s.pathOf, err = words[pathsum.PathID](sr, n); err != nil {
		return nil, 0, 0, fmt.Errorf("pathOf array: %w", err)
	}
	if s.depth, err = words[int32](sr, n); err != nil {
		return nil, 0, 0, fmt.Errorf("depth array: %w", err)
	}
	if s.rank, err = words[int32](sr, n); err != nil {
		return nil, 0, 0, fmt.Errorf("rank array: %w", err)
	}
	if s.end, err = words[bat.OID](sr, n); err != nil {
		return nil, 0, 0, fmt.Errorf("end array: %w", err)
	}
	// Navigation walks parent chains upwards and preorder intervals
	// forwards: both must make progress and stay inside the arrays.
	for i := 0; i < n; i++ {
		if int(s.parent[i]) >= max(i, 1) {
			return nil, 0, 0, fmt.Errorf("OID %d has parent %d, not an earlier node", i, s.parent[i])
		}
		if i > 0 && (s.pathOf[i] < 0 || int(s.pathOf[i]) >= nPaths) {
			return nil, 0, 0, fmt.Errorf("OID %d has unknown path %d", i, s.pathOf[i])
		}
		if i > 0 && (int(s.end[i]) < i || int(s.end[i]) >= n) {
			return nil, 0, 0, fmt.Errorf("OID %d has subtree end %d outside %d..%d", i, s.end[i], i, n-1)
		}
	}
	if err := checkTree(s.parent, s.depth, s.end); err != nil {
		return nil, 0, 0, err
	}
	nRelsU, err := sr.u32()
	if err != nil {
		return nil, 0, 0, err
	}
	// Relations are sized by the rows read, never by a declared count.
	sc := takeScratch()
	for i := 0; i < int(nRelsU); i++ {
		pidI, err := sr.i32()
		if err != nil {
			return nil, 0, 0, err
		}
		pid := pathsum.PathID(pidI)
		if pidI < 0 || int(pidI) >= nPaths || summary.Kind(pid) != pathsum.Attr {
			return nil, 0, 0, fmt.Errorf("string relation %d on non-attribute path %d", i, pidI)
		}
		cntU, err := sr.u32()
		if err != nil {
			return nil, 0, 0, err
		}
		for j := 0; j < int(cntU); j++ {
			owner, err := sr.u32()
			if err != nil {
				return nil, 0, 0, err
			}
			if int(owner) >= n {
				return nil, 0, 0, fmt.Errorf("string relation %d: owner %d out of range", i, owner)
			}
			val, err := sr.str("attribute value")
			if err != nil {
				return nil, 0, 0, fmt.Errorf("string relation %d: %w", i, err)
			}
			sc.strs = append(sc.strs, assoc{pid, bat.OID(owner), val})
		}
	}

	sum := sr.h.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(sr.r, crc[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("missing checksum: truncated input")
	}
	if got := binary.LittleEndian.Uint32(crc[:]); got != sum {
		return nil, 0, 0, fmt.Errorf("checksum mismatch (stored %08x, computed %08x): snapshot is corrupt", got, sum)
	}
	if _, err := sr.r.ReadByte(); err != io.EOF {
		return nil, 0, 0, fmt.Errorf("trailing data after checksum")
	}

	if !s.ValidOID(s.root) || s.root != 1 {
		return nil, 0, 0, fmt.Errorf("bad root %d", s.root)
	}
	s.strs, s.strBytes = sc.relations(summary)
	sc.release()
	if err := s.seal(); err != nil {
		return nil, 0, 0, err
	}
	return s, int(shardU), int(shardsU), nil
}
