package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func openOrDie(t *testing.T, path string, p Policy) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path, p)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tempLog(t)
	l, recs := openOrDie(t, path, PolicyAlways)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []Record{
		{Op: OpPut, Gen: 1, Name: "dblp", Shards: 4},
		{Op: OpPut, Gen: 2, Name: "bib", Shards: 1},
		{Op: OpDelete, Gen: 3, Name: "dblp"},
		{Op: OpGen, Gen: 9},
		{Op: OpPut, Gen: 10, Name: "名前 with spaces", Shards: 64},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != uint64(len(want)) || st.Fsyncs < uint64(len(want)) || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openOrDie(t, path, PolicyAlways)
	defer l2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %+v, want %+v", got, want)
	}
	if l2.Stats().Replayed != len(want) || l2.Stats().Truncated {
		t.Errorf("stats after reopen = %+v", l2.Stats())
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := tempLog(t)
	l, _ := openOrDie(t, path, PolicyAlways)
	good := Record{Op: OpPut, Gen: 1, Name: "keep", Shards: 1}
	if err := l.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := encodeRecord(Record{Op: OpPut, Gen: 2, Name: "torn-away", Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix of an appended record is a legitimate crash
	// state; recovery must keep the good record and drop the tail.
	for cut := 1; cut < len(torn); cut++ {
		if err := os.WriteFile(path, append(append([]byte(nil), whole...), torn[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs, err := Open(path, PolicyAlways)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 1 || recs[0] != good {
			t.Fatalf("cut %d: replay = %+v", cut, recs)
		}
		if !l2.Stats().Truncated {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
		// The torn bytes are gone: a third open sees a clean log.
		if err := l2.Append(Record{Op: OpPut, Gen: 2, Name: "after", Shards: 1}); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		_, recs3, err := Open(path, PolicyAlways)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if len(recs3) != 2 || recs3[1].Name != "after" {
			t.Fatalf("cut %d reopen: replay = %+v", cut, recs3)
		}
	}
}

func TestInteriorCorruptionIsHardError(t *testing.T) {
	path := tempLog(t)
	l, _ := openOrDie(t, path, PolicyAlways)
	for gen := uint64(1); gen <= 3; gen++ {
		if err := l.Append(Record{Op: OpPut, Gen: gen, Name: "doc", Shards: 1}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle record.
	mut := append([]byte(nil), raw...)
	mut[len(magic)+headerLen+5+headerLen+2] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, PolicyAlways)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError", err)
	}
	if ce.Offset == 0 || ce.Path != path {
		t.Errorf("corrupt error lacks diagnosis: %+v", ce)
	}
}

func TestBadMagicAndBadOp(t *testing.T) {
	path := tempLog(t)
	if err := os.WriteFile(path, []byte("DEFINITELYNOTAWAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, PolicyAlways); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := decodeRecord([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := decodeRecord(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := decodeRecord([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0}); err == nil {
		t.Error("ragged name length accepted")
	}
}

func TestBatchPolicyCoalescesFsyncs(t *testing.T) {
	path := tempLog(t)
	l, _ := openOrDie(t, path, PolicyBatch)
	defer l.Close()
	for i := 0; i < 100; i++ {
		if err := l.Append(Record{Op: OpPut, Gen: uint64(i + 1), Name: "d", Shards: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// 100 appends land within one BatchInterval on any plausible
	// machine; allow a couple of boundary crossings but not 1:1.
	if st := l.Stats(); st.Fsyncs > 10 {
		t.Errorf("batch policy fsynced %d times for 100 appends", st.Fsyncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestOffPolicyStillRecovers(t *testing.T) {
	path := tempLog(t)
	l, _ := openOrDie(t, path, PolicyOff)
	if err := l.Append(Record{Op: OpPut, Gen: 1, Name: "d", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 0 {
		t.Errorf("off policy fsynced %d times", st.Fsyncs)
	}
	l.Close()
	_, recs := openOrDie(t, path, PolicyOff)
	if len(recs) != 1 {
		t.Fatalf("replay = %+v", recs)
	}
}

func TestRewrite(t *testing.T) {
	path := tempLog(t)
	l, _ := openOrDie(t, path, PolicyAlways)
	for gen := uint64(1); gen <= 5; gen++ {
		if err := l.Append(Record{Op: OpPut, Gen: gen, Name: "churn", Shards: 1}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	live := []Record{
		{Op: OpPut, Gen: 5, Name: "churn", Shards: 1},
		{Op: OpGen, Gen: 7},
	}
	if err := Rewrite(path, live); err != nil {
		t.Fatal(err)
	}
	_, recs := openOrDie(t, path, PolicyAlways)
	if !reflect.DeepEqual(recs, live) {
		t.Errorf("after rewrite replay = %+v, want %+v", recs, live)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": PolicyAlways, "batch": PolicyBatch, "off": PolicyOff} {
		p, err := ParsePolicy(s)
		if err != nil || p != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
		if p.String() != s {
			t.Errorf("String() = %q, want %q", p.String(), s)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestAppendRejectsOversizedName(t *testing.T) {
	path := tempLog(t)
	l, _ := openOrDie(t, path, PolicyAlways)
	defer l.Close()
	if err := l.Append(Record{Op: OpPut, Gen: 1, Name: string(bytes.Repeat([]byte("x"), maxRecord))}); err == nil {
		t.Error("oversized name accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpPut, Gen: 1, Name: "x"}); err == nil {
		t.Error("append to closed log accepted")
	}
}

// TestFailedAppendFailsTheLog pins that nothing lands after a failed
// append: its bytes may be on disk, so a later record written after
// them would make the next boot read a torn record in the middle of the
// log. A working file handle swapped back in changes nothing.
func TestFailedAppendFailsTheLog(t *testing.T) {
	path := tempLog(t)
	l, _ := openOrDie(t, path, PolicyAlways)
	defer l.Close()
	keep := Record{Op: OpPut, Gen: 1, Name: "keep", Shards: 1}
	if err := l.Append(keep); err != nil {
		t.Fatal(err)
	}
	good := l.f
	ro, err := os.Open(path) // read-only: every write through it fails
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	l.f = ro
	if err := l.Append(Record{Op: OpPut, Gen: 2, Name: "lost", Shards: 1}); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	l.f = good
	if !l.Failed() || !l.Stats().Failed {
		t.Fatalf("Failed() = %v, Stats().Failed = %v after a failed append", l.Failed(), l.Stats().Failed)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	err = l.Append(Record{Op: OpPut, Gen: 2, Name: "after", Shards: 1})
	if err == nil || !strings.Contains(err.Error(), "log failed; restart to recover") {
		t.Fatalf("append after a failure = %v, want the failed-log refusal", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Errorf("log grew from %d to %d bytes after it failed", before.Size(), after.Size())
	}
	// A reopen — the restart — replays what the log held before it failed.
	l2, recs := openOrDie(t, path, PolicyAlways)
	defer l2.Close()
	if !reflect.DeepEqual(recs, []Record{keep}) {
		t.Errorf("replay = %+v, want only %+v", recs, keep)
	}
}

// BenchmarkWALAppend measures the mutation-log hot path: one framed,
// checksummed append per op. The batch policy is the serving-relevant
// configuration — PolicyAlways would benchmark the disk, not the
// code.
func BenchmarkWALAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "wal.log")
	l, _, err := Open(path, PolicyBatch)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := Record{Op: OpPut, Gen: 1, Name: "benchmark-document", Shards: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Gen = uint64(i + 1)
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
