package monetx

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"strings"

	"ncq/internal/xmltree"
)

// A snapshot persists a store as the event stream that loads it: Emit's
// walk, with each element's attributes in attribute-path order, one
// record per node. Restoring replays the stream into a sink — a Loader,
// for a store — so the columns, the path ids and an index built beside
// them come out as the load that made them wrote them, and no tree
// needs checking: the sink protocol the replay guards admits one tree.
//
// Layout (every integer an unsigned varint):
//
//	magic "NCQSNAP3"
//	shard | shards                  — per-shard framing
//	nLabels { len | label }         — element and attribute names
//	per node: ends | tag [ body ]   — elements ending before the node
//	    tag 1: text      len | text
//	    tag 2+i: element labels[i] | nAttrs { label | len | value }
//	ends | 0                        — the elements still open, root last
//	u32 crc32 (little-endian)       — IEEE checksum of all before it
//
// The decoder trusts no declared count or length: a count bounds a loop
// over records at least a byte long each, and a string is read a buffer
// at a time, so a hostile header can only make it allocate what the
// input actually contains.

// snapshotMagic identifies the format and its version; bumping it is
// the version guard, and an older magic is refused by name.
const snapshotMagic = "NCQSNAP3"

// maxSnapshotLabel bounds a single label, attribute value or text. It
// is a sanity limit, not a capacity plan.
const maxSnapshotLabel = 1 << 24

// Node tags; an element's tag is tagElem plus its label's index.
const (
	tagEnd = iota
	tagText
	tagElem
)

// crcResidue is the IEEE CRC-32 of any input followed by its own
// little-endian checksum, so the reader checks the whole input at once.
const crcResidue = 0x2144df1c

// snapWriter is the sink a store's walk writes its snapshot into,
// through a buffer that hands each chunk to the checksum as well. A
// write error sticks in the buffer and surfaces at its Flush.
type snapWriter struct {
	*bufio.Writer
	index map[string]int // a label's place in the label table
	ends  int            // Ends since the last node
}

func (sw *snapWriter) uvarint(v int) {
	sw.Write(binary.AppendUvarint(sw.AvailableBuffer(), uint64(v)))
}

func (sw *snapWriter) str(s string) { sw.uvarint(len(s)); sw.WriteString(s) }

// node starts a node's record.
func (sw *snapWriter) node(tag int) { sw.uvarint(sw.ends); sw.uvarint(tag); sw.ends = 0 }

func (sw *snapWriter) Start(label string, attrs []xmltree.Attr) error {
	sw.node(tagElem + sw.index[label])
	sw.uvarint(len(attrs))
	for _, a := range attrs {
		sw.uvarint(sw.index[a.Name])
		sw.str(a.Value)
	}
	return nil
}

func (sw *snapWriter) Text(text string) error { sw.node(tagText); sw.str(text); return nil }

func (sw *snapWriter) End() error { sw.ends++; return nil }

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
	h := crc32.NewIEEE()
	sw := &snapWriter{Writer: bufio.NewWriter(io.MultiWriter(w, h)), index: make(map[string]int)}
	sw.WriteString(snapshotMagic)
	sw.uvarint(shard)
	sw.uvarint(shards)
	var labels []string // every path's label, once, in interning order
	for _, pid := range s.summary.AllPaths() {
		l := s.summary.Label(pid)
		if _, ok := sw.index[l]; !ok {
			sw.index[l] = len(labels)
			labels = append(labels, l)
		}
	}
	sw.uvarint(len(labels))
	for _, l := range labels {
		sw.str(l)
	}
	err := s.emit(s.root, sw, false)
	if err == nil {
		sw.node(tagEnd)
		err = sw.Flush()
	}
	if err == nil {
		_, err = w.Write(binary.LittleEndian.AppendUint32(nil, h.Sum32()))
	}
	if err != nil {
		return fmt.Errorf("monetx: write snapshot: %w", err)
	}
	return nil
}

// snapReader reads a snapshot through a buffer over the input, every
// byte of which goes through the checksum. Its first error sticks:
// every read after it returns zero.
type snapReader struct {
	r   *bufio.Reader
	h   hash.Hash32
	err error
}

var errTruncated = errors.New("truncated input")

// fail records the first error; the input's end is a truncation.
func (sr *snapReader) fail(err error) {
	if err == io.EOF {
		err = errTruncated
	}
	if sr.err == nil {
		sr.err = err
	}
}

func (sr *snapReader) uvarint() uint64 {
	var v uint64
	for shift := 0; sr.err == nil; shift += 7 {
		b, err := sr.r.ReadByte()
		switch {
		case err != nil:
			sr.fail(err)
		case shift == 63 && b > 1:
			sr.fail(errors.New("varint overflows 64 bits"))
		case b < 0x80:
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0
}

// str reads a length-prefixed string a buffer at a time.
func (sr *snapReader) str() string {
	n := sr.uvarint()
	if n > maxSnapshotLabel {
		sr.fail(fmt.Errorf("string length %d exceeds limit", n))
	}
	if sr.err != nil {
		return ""
	}
	var out strings.Builder
	out.Grow(min(int(n), sr.r.Size()))
	for rem := int(n); rem > 0 && sr.err == nil; {
		p, err := sr.r.Peek(min(rem, sr.r.Size()))
		out.Write(p)
		rem -= len(p)
		sr.r.Discard(len(p))
		sr.fail(err)
	}
	return out.String()
}

// check reads past the checksum trailer and holds the input to end
// there, and the whole input, trailer included, to the CRC residue.
func (sr *snapReader) check() {
	if _, err := sr.r.Discard(4); err != nil {
		sr.fail(err)
	} else if _, err := sr.r.ReadByte(); err == nil {
		sr.fail(errors.New("trailing data after checksum"))
	} else if err != io.EOF {
		sr.fail(err)
	} else if sr.h.Sum32() != crcResidue {
		sr.fail(errors.New("checksum mismatch: snapshot is corrupt"))
	}
}

// ReadSnapshot deserialises a store written by WriteSnapshot,
// discarding the shard framing.
func ReadSnapshot(r io.Reader) (*Store, error) {
	s, _, _, err := ReadSnapshotShard(r)
	return s, err
}

// ReadSnapshotShard deserialises a store written by WriteSnapshotShard
// and returns the shard framing alongside it: the snapshot replayed
// into a Loader.
func ReadSnapshotShard(r io.Reader) (store *Store, shard, shards int, err error) {
	l := NewLoader(func(s *Store) error { store = s; return nil })
	if shard, shards, err = ReplaySnapshot(r, l); err != nil {
		l.Abort()
		return nil, 0, 0, err
	}
	return store, shard, shards, nil
}

// ReplaySnapshot decodes a snapshot written by WriteSnapshotShard into
// sink, one event per node, and returns its shard framing. It holds the
// events to one document, as the parser does: no End while nothing is
// open, no text outside the root, no second root, no root left open, no
// element labelled cdata, no attribute repeated on an element, no empty
// label. The End that closes the root is delivered only once the
// checksum matches and the input has ended, so a sink that completes
// its document there never sees a corrupt one. A caller whose replay
// fails aborts the sink's part, as after a refused parse.
func ReplaySnapshot(r io.Reader, sink xmltree.Sink) (shard, shards int, err error) {
	h := crc32.NewIEEE()
	sr := &snapReader{r: bufio.NewReader(io.TeeReader(r, h)), h: h}
	if shard, shards, err = replay(sr, sink); err != nil {
		return 0, 0, fmt.Errorf("monetx: read snapshot: %w", err)
	}
	return shard, shards, nil
}

func replay(sr *snapReader, sink xmltree.Sink) (int, int, error) {
	var m [len(snapshotMagic)]byte
	if _, err := io.ReadFull(sr.r, m[:]); err != nil {
		return 0, 0, fmt.Errorf("missing magic: %w", errTruncated)
	}
	if string(m[:]) != snapshotMagic {
		if bytes.HasPrefix(m[:], []byte("NCQSNAP")) {
			return 0, 0, fmt.Errorf("%s is a retired format: reload the document from its XML", m[:])
		}
		return 0, 0, fmt.Errorf("bad magic %q: not a snapshot", m[:])
	}
	shard, shards := sr.uvarint(), sr.uvarint()
	if sr.err == nil && (shards == 0 || shard >= shards || shards > 1<<16) {
		return 0, 0, fmt.Errorf("bad shard framing %d/%d", shard, shards)
	}
	var labels []string
	seen := make(map[string]bool)
	for i, n := uint64(0), sr.uvarint(); i < n && sr.err == nil; i++ {
		l := sr.str()
		if sr.err == nil && (l == "" || seen[l]) {
			return 0, 0, fmt.Errorf("label %d: %q is empty or repeated", i, l)
		}
		seen[l] = true
		labels = append(labels, l)
	}

	var attrs []xmltree.Attr
	attrOf := make([]int, len(labels)) // the node whose attribute each label last named
	open, rooted := 0, false           // elements started and not yet ended; whether the root was
	for node := 1; sr.err == nil; node++ {
		ends := sr.uvarint()
		if ends > uint64(open) {
			return 0, 0, fmt.Errorf("node %d ends %d elements, %d are open", node, ends, open)
		}
		open -= int(ends)
		if rooted && open == 0 {
			ends-- // the root's End waits until the input checks out
		}
		for ; ends > 0 && sr.err == nil; ends-- {
			sr.fail(sink.End())
		}
		tag := sr.uvarint()
		if sr.err != nil {
			break
		}
		switch {
		case tag == tagEnd && open > 0:
			return 0, 0, fmt.Errorf("the root is left open with %d elements", open)
		case tag == tagEnd && !rooted:
			return 0, 0, errors.New("no root element")
		case tag == tagEnd:
			if sr.check(); sr.err != nil {
				return 0, 0, sr.err
			}
			return int(shard), int(shards), sink.End()
		case tag == tagText && open == 0:
			return 0, 0, fmt.Errorf("node %d is text outside the root", node)
		case open == 0 && rooted:
			return 0, 0, fmt.Errorf("node %d is a second root", node)
		case tag == tagText:
			if text := sr.str(); sr.err == nil {
				sr.fail(sink.Text(text))
			}
			continue
		case tag-tagElem >= uint64(len(labels)):
			return 0, 0, fmt.Errorf("node %d: unknown label %d", node, tag-tagElem)
		case labels[tag-tagElem] == xmltree.CDataLabel:
			return 0, 0, fmt.Errorf("node %d: an element labelled %s", node, xmltree.CDataLabel)
		}
		attrs = attrs[:0]
		for i, n := uint64(0), sr.uvarint(); i < n && sr.err == nil; i++ {
			if li := sr.uvarint(); sr.err == nil {
				switch {
				case li >= uint64(len(labels)):
					return 0, 0, fmt.Errorf("node %d: unknown attribute label %d", node, li)
				case attrOf[li] == node:
					return 0, 0, fmt.Errorf("node %d: attribute %q repeated", node, labels[li])
				}
				attrOf[li] = node
				attrs = append(attrs, xmltree.Attr{Name: labels[li], Value: sr.str()})
			}
		}
		if sr.err == nil {
			sr.fail(sink.Start(labels[tag-tagElem], attrs))
			open, rooted = open+1, true
		}
	}
	return 0, 0, sr.err
}
