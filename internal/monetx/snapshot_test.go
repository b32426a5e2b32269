package monetx

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	batpkg "ncq/internal/bat"
	"ncq/internal/datagen"
	"ncq/internal/xmltree"
)

func roundTripSnapshot(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSnapshotRoundTripFig1(t *testing.T) {
	s := fig1Store(t)
	back := roundTripSnapshot(t, s)
	// The reloaded store must reassemble to the identical document.
	a, err := rebuild(s, s.Root())
	if err != nil {
		t.Fatal(err)
	}
	b, err := rebuild(back, back.Root())
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(a, b) {
		t.Error("snapshot round trip changed the document")
	}
	// Spot-check navigation equivalence.
	if back.Len() != s.Len() || back.Root() != s.Root() {
		t.Error("shape differs")
	}
	for oid := 1; oid <= s.Len(); oid++ {
		o := batpkg.OID(oid)
		if back.Parent(o) != s.Parent(o) || back.Depth(o) != s.Depth(o) ||
			back.Rank(o) != s.Rank(o) || back.PathString(o) != s.PathString(o) {
			t.Fatalf("per-OID data differs at %d", oid)
		}
	}
	// String relations intact.
	if txt, ok := back.Text(8); !ok || txt != "Bit" {
		t.Errorf("Text(8) = (%q,%v)", txt, ok)
	}
	if v, ok := back.AttrValue(13, "key"); !ok || v != "BK99" {
		t.Errorf("AttrValue = (%q,%v)", v, ok)
	}
	// Stats agree (same relations, same associations).
	if s.Stats() != back.Stats() {
		t.Errorf("stats differ: %+v vs %+v", s.Stats(), back.Stats())
	}
}

func TestSnapshotRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for i := 0; i < 30; i++ {
		doc := xmltree.Random(r, 80)
		s, err := Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		back := roundTripSnapshot(t, s)
		rebuilt, err := rebuild(back, back.Root())
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(doc, rebuilt) {
			t.Fatalf("doc %d: snapshot round trip changed the document", i)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("")); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader("garbage data, not a snapshot")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	s := fig1Store(t)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Every proper prefix must fail cleanly — no panic, no store.
	for cut := 0; cut < len(raw); cut++ {
		if back, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil || back != nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(raw))
		}
	}
	// Flipping any single byte must fail the checksum (or an earlier
	// structural check) — never load silently wrong data.
	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit-flip at offset %d accepted", i)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), raw...), 'x'))); err == nil {
		t.Error("trailing data accepted")
	}
}

// snapBody builds what follows a snapshot's magic, value by value.
type snapBody []byte

// u appends unsigned varints, to a copy: bodies share prefixes.
func (b snapBody) u(vs ...uint64) snapBody {
	b = slices.Clip(b)
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// s appends length-prefixed strings.
func (b snapBody) s(strs ...string) snapBody {
	for _, str := range strs {
		b = append(b.u(uint64(len(str))), str...)
	}
	return b
}

// raw is the body behind the magic, with no checksum.
func (b snapBody) raw() []byte { return append([]byte(snapshotMagic), b...) }

// sealed is the body behind the magic and before its checksum.
func (b snapBody) sealed() []byte {
	return binary.LittleEndian.AppendUint32(b.raw(), crc32.ChecksumIEEE(b.raw()))
}

func TestSnapshotHostileLengths(t *testing.T) {
	// A header that declares a huge count or length with no backing
	// bytes must fail on read without a giant up-front allocation.
	base := snapBody(nil).u(0, 1) // shard 0 of 1
	hostile := map[string][]byte{
		"label count":     base.u(1 << 62).raw(),
		"label length":    base.u(1, 0xfffffff0).raw(),
		"attribute count": base.u(1).s("r").u(0, tagElem, 1<<62).raw(),
		"text length":     base.u(1).s("r").u(0, tagElem, 0, 0, tagText, 1<<62).raw(),
	}
	for name, in := range hostile {
		if _, err := ReadSnapshot(bytes.NewReader(in)); err == nil {
			t.Errorf("hostile %s accepted", name)
		}
	}
	// One 1 MiB label named once and nested 4,000 deep, three bytes a
	// level: the paths would render 8 TiB. The loader stops them at
	// pathsum.MaxPathBytes.
	deep := base.u(2).s("r", strings.Repeat("x", 1<<20)).u(0, tagElem, 0)
	for range 4000 {
		deep = append(deep, 0, tagElem+1, 0)
	}
	if _, err := ReadSnapshot(bytes.NewReader(deep.u(4001, tagEnd).sealed())); err == nil || !strings.Contains(err.Error(), "rendered paths past") {
		t.Errorf("a label repeated down a deep chain: err = %v, want the path-bytes limit", err)
	}
}

// balanceSink holds a replay to the sink protocol: it fails on an End
// while nothing is open, and records whether the root ever closed.
type balanceSink struct {
	t      *testing.T
	open   int
	closed bool // the root's End was delivered
}

func (b *balanceSink) Start(string, []xmltree.Attr) error { b.open++; return nil }
func (b *balanceSink) Text(string) error                  { return nil }
func (b *balanceSink) End() error {
	if b.open == 0 {
		b.t.Fatal("End with nothing open")
	}
	if b.open--; b.open == 0 {
		b.closed = true
	}
	return nil
}

// TestReadSnapshotRejectsUnbalancedEvents restores hand-built
// snapshots whose checksums hold, so that each reaches the structural
// check that refuses it and must be refused by name. None of them
// delivers an End while nothing is open, or the root's End at all.
func TestReadSnapshotRejectsUnbalancedEvents(t *testing.T) {
	// Labels: r (element), k (attribute), cdata.
	head := snapBody(nil).u(0, 1, 3).s("r", "k", xmltree.CDataLabel)
	root := head.u(0, tagElem, 0)
	valid := root.u(0, tagText).s("hi").u(1, tagEnd).sealed()
	if s, err := ReadSnapshot(bytes.NewReader(valid)); err != nil || s.Len() != 2 {
		t.Fatalf("the valid stream: %v, %v", s, err)
	}
	for _, c := range []struct {
		name, want string
		in         []byte
	}{
		{"end with nothing open", "node 2 ends 2 elements, 1 are open", root.u(2, tagEnd).sealed()},
		{"text before the root", "node 1 is text outside the root", head.u(0, tagText).s("hi").u(0, tagEnd).sealed()},
		{"text after the root", "node 2 is text outside the root", root.u(1, tagText).s("hi").u(0, tagEnd).sealed()},
		{"second root", "node 2 is a second root", root.u(1, tagElem, 0).u(1, tagEnd).sealed()},
		{"root left open", "the root is left open with 1 elements", root.u(0, tagEnd).sealed()},
		{"no root", "no root element", head.u(0, tagEnd).sealed()},
		{"element labelled cdata", "node 2: an element labelled cdata", root.u(0, tagElem+2, 0).u(2, tagEnd).sealed()},
		{"repeated attribute", `node 1: attribute "k" repeated`, head.u(0, tagElem, 2, 1).s("v").u(1).s("w").u(1, tagEnd).sealed()},
		{"empty label", `label 1: "" is empty or repeated`, snapBody(nil).u(0, 1, 2).s("r", "").u(0, tagElem, 0, 1, tagEnd).sealed()},
		{"repeated label", `label 1: "r" is empty or repeated`, snapBody(nil).u(0, 1, 2).s("r", "r").u(0, tagElem, 0, 1, tagEnd).sealed()},
		{"unknown label", "node 1: unknown label 3", head.u(0, tagElem+3, 0, 1, tagEnd).sealed()},
		{"retired format", "NCQSNAP2 is a retired format", append([]byte("NCQSNAP2"), valid[len(snapshotMagic):]...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			back, err := ReadSnapshot(bytes.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadSnapshot = (%v, %v), want an error naming %q", back, err, c.want)
			}
			sink := &balanceSink{t: t}
			if _, _, err := ReplaySnapshot(bytes.NewReader(c.in), sink); err == nil || sink.closed {
				t.Fatalf("replay: err %v, root closed %v", err, sink.closed)
			}
		})
	}
}

// TestReplayChecksBeforeTheRootEnds flips every byte of a snapshot in
// turn: each replay is refused, and none delivers the root's End, the
// event that seals a loader's store.
func TestReplayChecksBeforeTheRootEnds(t *testing.T) {
	var buf bytes.Buffer
	if err := fig1Store(t).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		mut := bytes.Clone(raw)
		mut[i] ^= 0xff
		sink := &balanceSink{t: t}
		if _, _, err := ReplaySnapshot(bytes.NewReader(mut), sink); err == nil || sink.closed {
			t.Fatalf("flip at %d: err %v, root closed %v", i, err, sink.closed)
		}
	}
}

// TestRefusedReplaysKeepNothing refuses restores of a DBLP snapshot cut
// short at fifty offsets and with one byte flipped at fifty: the kept
// scratch slot holds no aborted load's set afterwards.
func TestRefusedReplaysKeepNothing(t *testing.T) {
	s, err := Load(datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1994, YearTo: 1999, PubsPerVenueYear: 20}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 1; i <= 50; i++ {
		off := len(raw) * i / 51
		flipped := bytes.Clone(raw)
		flipped[off] ^= 0x5a
		for _, in := range [][]byte{raw[:off], flipped} {
			if _, err := ReadSnapshot(bytes.NewReader(in)); err == nil {
				t.Fatalf("offset %d: accepted", off)
			}
			if sc := kept.Load(); sc != nil && slices.ContainsFunc(sc.strs[:cap(sc.strs)], func(a assoc) bool { return a.value != "" }) {
				t.Fatalf("offset %d: the kept scratch holds an aborted load's strings", off)
			}
		}
	}
}

func TestSnapshotShardFraming(t *testing.T) {
	s := fig1Store(t)
	var buf bytes.Buffer
	if err := s.WriteSnapshotShard(&buf, 2, 5); err != nil {
		t.Fatal(err)
	}
	back, shard, shards, err := ReadSnapshotShard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if shard != 2 || shards != 5 {
		t.Errorf("framing = %d/%d, want 2/5", shard, shards)
	}
	if back.Len() != s.Len() {
		t.Error("framed store differs")
	}
	if err := s.WriteSnapshotShard(&buf, 5, 5); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := s.WriteSnapshotShard(&buf, 0, 0); err == nil {
		t.Error("zero shard count accepted")
	}
}

// TestSnapshotDeterministic checks that save→load→save is
// byte-identical: the on-disk artifact is a stable function of the
// logical store, which is what lets recovery tests compare bytes and
// lets rebalancing ship shard files without re-encoding.
func TestSnapshotDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for i := 0; i < 10; i++ {
		doc := xmltree.Random(r, 60)
		s, err := Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := s.WriteSnapshot(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := back.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("doc %d: save→load→save is not byte-identical", i)
		}
	}
}

// BenchmarkRestoreSnapshot measures the recovery hot path: decoding a
// snapshot and rebuilding the derived relations, which is what restart
// latency is made of once documents persist as .snap artifacts.
func BenchmarkRestoreSnapshot(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	doc := xmltree.Random(r, 5000)
	s, err := Load(doc)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
