package monetx

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	batpkg "ncq/internal/bat"
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

func TestSnapshotHostileLengths(t *testing.T) {
	// A header that declares a huge count with no backing bytes must
	// fail on read without a giant up-front allocation. The inputs are
	// magic + framing + root + an absurd path count / label length.
	le := func(v uint32) []byte {
		return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	}
	base := append([]byte("NCQSNAP2"), le(0)...) // shard
	base = append(base, le(1)...)                // shards
	base = append(base, le(1)...)                // root
	hostile := [][]byte{
		append(append([]byte(nil), base...), le(0xffffffff)...),             // path count
		append(append(append([]byte(nil), base...), le(1)...), le(0xff)...), // path with torn parent
	}
	// One interned path declaring a ~4 GiB label.
	withLabel := append(append([]byte(nil), base...), le(1)...)
	withLabel = append(withLabel, le(0xffffffff)...) // parent = -1
	withLabel = append(withLabel, 0)                 // kind
	withLabel = append(withLabel, le(0xfffffff0)...) // label length
	hostile = append(hostile, withLabel)
	for i, in := range hostile {
		if _, err := ReadSnapshot(bytes.NewReader(in)); err == nil {
			t.Errorf("hostile input %d accepted", i)
		}
	}
}

// TestReadSnapshotRejectsInconsistentTree restores Figure-1 snapshots
// whose per-OID arrays were mutated before writing, so the checksum
// holds: each describes no tree, or a tree Contains and the parent
// array disagree about, and each must be refused by name.
func TestReadSnapshotRejectsInconsistentTree(t *testing.T) {
	for _, c := range []struct {
		name, want string
		mutate     func(s *Store)
	}{
		// o3 (the first article) ends at o10, before its year o11.
		{"shrunk end", "past the end 10 of its parent 3's interval", func(s *Store) { s.end[3] = 10 }},
		// o12 (cdata "1999") claims o13, the second article.
		{"overlong end", "OID 12's interval end 13 reaches past its parent 11's end 12", func(s *Store) { s.end[12] = 13 }},
		{"wrong depth", "OID 8 has depth 7 under parent 7 at depth 4", func(s *Store) { s.depth[8] = 7 }},
		// o11 (year) names its sibling o4 (author) as parent.
		{"sibling as parent", "OID 11 has parent 4, but the innermost interval open at it is 3's", func(s *Store) { s.parent[11] = 4 }},
		{"short root", "root OID 1 at depth 0 spans 1..18, not every OID 1..19", func(s *Store) { s.end[1] = 18 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := fig1Store(t)
			c.mutate(s)
			var buf bytes.Buffer
			if err := s.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSnapshot(&buf)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadSnapshot = (%v, %v), want an error naming %q", back, err, c.want)
			}
		})
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
