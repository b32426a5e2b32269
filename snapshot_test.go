package ncq

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/xmltree"
)

func TestSnapshotFacadeRoundTrip(t *testing.T) {
	db := fig1DB(t)
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Every query behaves identically.
	a, _, err := locateMeet(db, nil, "Bit", "1999")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := locateMeet(back, nil, "Bit", "1999")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("meets differ after snapshot: %+v vs %+v", a, b)
	}
	ansA, err := db.Query(`SELECT value(e) FROM //title AS e`)
	if err != nil {
		t.Fatal(err)
	}
	ansB, err := back.Query(`SELECT value(e) FROM //title AS e`)
	if err != nil {
		t.Fatal(err)
	}
	if ansA.XML() != ansB.XML() {
		t.Errorf("query answers differ:\n%s\nvs\n%s", ansA.XML(), ansB.XML())
	}
	// The reloaded database serialises to equivalent XML.
	var xa, xb strings.Builder
	if err := db.WriteXML(&xa, false); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteXML(&xb, false); err != nil {
		t.Fatal(err)
	}
	if xa.String() != xb.String() {
		t.Errorf("XML differs:\n%s\nvs\n%s", xa.String(), xb.String())
	}
	if db.Stats() != back.Stats() {
		t.Errorf("stats differ: %+v vs %+v", db.Stats(), back.Stats())
	}
}

func TestOpenSnapshotErrors(t *testing.T) {
	if _, err := OpenSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	// Every proper prefix of a valid snapshot must be rejected cleanly:
	// no panic, no partially loaded database.
	db := fig1DB(t)
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if back, err := OpenSnapshot(bytes.NewReader(raw[:cut])); err == nil || back != nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(raw))
		}
	}
}

func TestSnapshotShardFacade(t *testing.T) {
	db := fig1DB(t)
	var buf bytes.Buffer
	if err := db.SaveSnapshotShard(&buf, 1, 3); err != nil {
		t.Fatal(err)
	}
	back, shard, shards, err := OpenSnapshotShard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if shard != 1 || shards != 3 {
		t.Errorf("framing = %d/%d, want 1/3", shard, shards)
	}
	if back.Stats() != db.Stats() {
		t.Errorf("stats differ: %+v vs %+v", back.Stats(), db.Stats())
	}
	// Framing survives a save→load→save cycle byte-identically.
	var again bytes.Buffer
	if err := back.SaveSnapshotShard(&again, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("save→load→save is not byte-identical")
	}
}

// FuzzOpenSnapshot throws mutated snapshot bytes at the decoder. The
// invariants: never panic, never allocate unboundedly ahead of the
// input, and any accepted input must re-save to a loadable snapshot and
// describe one tree — the preorder intervals agree with the parent
// array on every pair of nodes, and a meet over every OID finds each
// witness inside its meet.
func FuzzOpenSnapshot(f *testing.F) {
	db, err := fromDocument(xmltree.Fig1())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NCQSNAP2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := OpenSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := back.SaveSnapshot(&out); err != nil {
			t.Fatalf("accepted input re-saves with error: %v", err)
		}
		if _, err := OpenSnapshot(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		s := back.store
		all := make([]bat.OID, s.Len())
		for i := range all {
			all[i] = bat.OID(i + 1)
		}
		for _, a := range all {
			for _, d := range all {
				if s.Contains(a, d) != s.ContainsViaJoins(a, d) {
					t.Fatalf("Contains(%d, %d) = %v, the parent array says %v", a, d, s.Contains(a, d), s.ContainsViaJoins(a, d))
				}
			}
		}
		results, _, err := core.MeetMultiContext(context.Background(), s, [][]bat.OID{all}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			for _, w := range r.Witnesses {
				if !s.ContainsViaJoins(r.Meet, w) {
					t.Fatalf("meet %d does not contain its witness %d", r.Meet, w)
				}
			}
		}
	})
}
