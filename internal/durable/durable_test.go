package durable

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ncq"
	"ncq/internal/wal"
	"ncq/internal/xmltree"
)

func fig1DB(t testing.TB) *ncq.Database {
	t.Helper()
	db, err := ncq.OpenString(xmltree.Fig1().XMLString())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func openStore(t testing.TB, dir string) (*Store, *ncq.Corpus) {
	t.Helper()
	c := ncq.NewCorpus()
	s, err := Open(dir, wal.PolicyAlways, c)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// membershipFingerprint captures everything recovery must reproduce:
// names in order, plain-vs-sharded shape, shard counts, generation.
func membershipFingerprint(c *ncq.Corpus) string {
	var b strings.Builder
	for _, name := range c.Names() {
		_, plain := c.Get(name)
		fmt.Fprintf(&b, "%s plain=%v shards=%d\n", name, plain, c.ShardCount(name))
	}
	fmt.Fprintf(&b, "gen=%d", c.Generation())
	return b.String()
}

func TestStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, c := openStore(t, dir)
	db := fig1DB(t)

	if replaced, err := s.PutPlain("plain", db); err != nil || replaced {
		t.Fatalf("PutPlain = %v, %v", replaced, err)
	}
	if replaced, err := s.Put("shardy", []*ncq.Database{db, db, db}, true); err != nil || replaced {
		t.Fatalf("Put(shardy) = %v, %v", replaced, err)
	}
	if replaced, err := s.PutPlain("gone", db); err != nil || replaced {
		t.Fatalf("PutPlain(gone) = %v, %v", replaced, err)
	}
	if replaced, err := s.PutPlain("plain", db); err != nil || !replaced {
		t.Fatalf("replace = %v, %v", replaced, err)
	}
	if ok, err := s.Delete("gone"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, err := s.Delete("never-there"); err != nil || ok {
		t.Fatalf("Delete(absent) = %v, %v", ok, err)
	}
	want := membershipFingerprint(c)
	if c.Generation() != 5 {
		t.Fatalf("generation = %d, want 5", c.Generation())
	}
	st := s.Stats()
	if st.Commits != 5 || st.SnapshotBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, c2 := openStore(t, dir)
	defer s2.Close()
	if got := membershipFingerprint(c2); got != want {
		t.Errorf("after restart:\n%s\nwant:\n%s", got, want)
	}
	if s2.Stats().ReplayDocs != 2 {
		t.Errorf("replayed %d docs, want 2", s2.Stats().ReplayDocs)
	}
	// The recovered member answers queries like the original.
	req := ncq.Request{Doc: "plain", Terms: []string{"Bit", "1999"}}
	a, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Meets, b.Meets) {
		t.Errorf("answers differ: %+v vs %+v", a, b)
	}
	// Only the winning directories survive on disk.
	dirs := s2.DocDirs()
	if len(dirs) != 2 {
		t.Errorf("doc dirs = %v, want 2 winners", dirs)
	}
}

func TestStoreMutationsSurviveWithoutClose(t *testing.T) {
	// PolicyAlways means the log needs no Close to be replayable: drop
	// the store on the floor, reopen the directory, everything is
	// there. (This is the kill -9 case minus the kill.)
	dir := t.TempDir()
	s, c := openStore(t, dir)
	if _, err := s.PutPlain("d", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	want := membershipFingerprint(c)
	// No Close. Reopen against the same files.
	_, c2 := openStore(t, filepath.Clean(dir))
	if got := membershipFingerprint(c2); got != want {
		t.Errorf("reopen:\n%s\nwant:\n%s", got, want)
	}
	_ = s
}

func TestStoreInsertionOrderPreserved(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	db := fig1DB(t)
	for _, name := range []string{"c", "a", "b"} {
		if _, err := s.PutPlain(name, db); err != nil {
			t.Fatal(err)
		}
	}
	// Replacing "c" keeps its position at the front.
	if _, err := s.PutPlain("c", db); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, c2 := openStore(t, dir)
	if got := c2.Names(); !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Errorf("names after restart = %v, want [c a b]", got)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	db := fig1DB(t)
	// Churn one name far past compactSlack.
	for i := 0; i < compactSlack+8; i++ {
		if _, err := s.PutPlain("churn", db); err != nil {
			t.Fatal(err)
		}
	}
	gen := compactSlack + 8
	s.Close()
	s2, c2 := openStore(t, dir)
	if s2.Stats().Compactions != 1 {
		t.Fatalf("boot did not compact: %+v", s2.Stats())
	}
	if c2.Generation() != uint64(gen) {
		t.Errorf("generation after compaction = %d, want %d", c2.Generation(), gen)
	}
	s2.Close()
	// The compacted log replays identically (and quickly).
	s3, c3 := openStore(t, dir)
	defer s3.Close()
	if c3.Generation() != uint64(gen) || s3.Stats().ReplayRecords > 2 {
		t.Errorf("recompacted replay: gen=%d records=%d", c3.Generation(), s3.Stats().ReplayRecords)
	}
}

func TestStoreOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	if _, err := s.PutPlain("keep", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Fake the debris of a crash after rename, before the WAL append:
	// a committed-looking directory no record references.
	orphan := filepath.Join(dir, "docs", "g99-orphan")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	// And a staging leftover.
	if err := os.MkdirAll(filepath.Join(dir, "staging", "commit"), 0o755); err != nil {
		t.Fatal(err)
	}
	s2, c2 := openStore(t, dir)
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan directory survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "staging")); !os.IsNotExist(err) {
		t.Error("staging directory survived recovery")
	}
	if c2.Generation() != 1 || c2.Len() != 1 {
		t.Errorf("recovered corpus: gen=%d len=%d", c2.Generation(), c2.Len())
	}
}

func TestStoreMissingSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	if _, err := s.PutPlain("doc", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	docDirs := s.DocDirs()
	s.Close()
	if err := os.RemoveAll(filepath.Join(dir, "docs", docDirs[0])); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, wal.PolicyAlways, ncq.NewCorpus())
	if err == nil || !strings.Contains(err.Error(), "logged as committed") {
		t.Errorf("Open = %v, want hard error naming the damaged document", err)
	}
}

// TestStoreRetiredSnapshotFormatFailsBoot boots over a data directory
// whose snapshot carries the retired NCQSNAP2 magic: recovery refuses it
// by name, naming the file, rather than decoding it as anything else.
func TestStoreRetiredSnapshotFormatFailsBoot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	if _, err := s.PutPlain("doc", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	snap := shardFile(filepath.Join(dir, "docs", s.DocDirs()[0]), 0)
	s.Close()
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, append([]byte("NCQSNAP2"), raw[len("NCQSNAP2"):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, wal.PolicyAlways, ncq.NewCorpus())
	if err == nil || !strings.Contains(err.Error(), "shard-000.snap: ncq: monetx: read snapshot: NCQSNAP2 is a retired format") {
		t.Errorf("Open = %v, want a refusal naming the file and the retired format", err)
	}
}

func TestStoreCorruptLogFailsBoot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	if _, err := s.PutPlain("a", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPlain("b", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	logPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xff // inside the first record
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, wal.PolicyAlways, ncq.NewCorpus())
	var ce *wal.CorruptError
	if !errorsAs(err, &ce) {
		t.Errorf("Open = %v, want *wal.CorruptError", err)
	}
}

// errorsAs avoids importing errors just for one assertion helper.
func errorsAs(err error, target *(*wal.CorruptError)) bool {
	for err != nil {
		if ce, ok := err.(*wal.CorruptError); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestStoreDeleteOfUnpersistedMemberReplaysAsNoop pins what a member
// registered on the corpus directly — never through the store, so never
// persisted — does to the log: the store's DELETE of it is logged like
// any other, and replay, which knows no put of that name, treats the
// record as a no-op that only raises the generation.
func TestStoreDeleteOfUnpersistedMemberReplaysAsNoop(t *testing.T) {
	dir := t.TempDir()
	s, c := openStore(t, dir)
	if err := c.Add("unpersisted", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	if found, err := s.Delete("unpersisted"); err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	s.Close()
	s2, c2 := openStore(t, dir)
	defer s2.Close()
	if s2.Stats().ReplayRecords != 1 || c2.Len() != 0 || c2.Generation() != 2 {
		t.Errorf("recovered %d records into %d members at generation %d, want 1 record, 0 members, generation 2",
			s2.Stats().ReplayRecords, c2.Len(), c2.Generation())
	}
}

// storeState is what a refused write must leave unchanged: the served
// membership, its generation and the snapshot directories on disk.
func storeState(s *Store, c *ncq.Corpus) string {
	return fmt.Sprintf("%v gen=%d dirs=%v", c.Names(), c.Generation(), s.DocDirs())
}

// TestStorePutRefusedAtRename: a put whose generation-stamped directory
// cannot be claimed is refused before the corpus changes, and a restart
// recovers the membership as it was.
func TestStorePutRefusedAtRename(t *testing.T) {
	dir := t.TempDir()
	s, c := openStore(t, dir)
	if _, err := s.PutPlain("keep", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	// Occupy the directory the next put of x would be renamed to.
	blocker := filepath.Join(dir, "docs", docDirName(c.Generation()+1, "x"))
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocker, "occupied"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	want := storeState(s, c)
	if _, err := s.PutPlain("x", fig1DB(t)); err == nil {
		t.Fatal("put onto an occupied directory acknowledged")
	}
	if got := storeState(s, c); got != want {
		t.Errorf("refused put changed the store:\n%s\nwas\n%s", got, want)
	}
	s.Close()
	s2, c2 := openStore(t, dir)
	defer s2.Close()
	if got, want := membershipFingerprint(c2), "keep plain=true shards=1\ngen=1"; got != want {
		t.Errorf("after restart:\n%s\nwant:\n%s", got, want)
	}
}

// TestStoreWritesRefusedByFailedLog: with a log that takes no record, a
// put and a delete are both refused before the corpus changes — no
// member served that a restart would lose, none evicted that a restart
// would bring back.
func TestStoreWritesRefusedByFailedLog(t *testing.T) {
	dir := t.TempDir()
	s, c := openStore(t, dir)
	if _, err := s.PutPlain("keep", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	want := storeState(s, c)
	if _, err := s.PutPlain("x", fig1DB(t)); err == nil {
		t.Error("put acknowledged without its log record")
	}
	if got := storeState(s, c); got != want {
		t.Errorf("refused put changed the store:\n%s\nwas\n%s", got, want)
	}
	if _, err := s.Delete("keep"); err == nil {
		t.Error("delete acknowledged without its log record")
	}
	if got := storeState(s, c); got != want {
		t.Errorf("refused delete changed the store:\n%s\nwas\n%s", got, want)
	}
	s2, c2 := openStore(t, dir)
	defer s2.Close()
	if got, want := membershipFingerprint(c2), "keep plain=true shards=1\ngen=1"; got != want {
		t.Errorf("after restart:\n%s\nwant:\n%s", got, want)
	}
}

// TestStoreConcurrentCommits: puts and deletes racing on shared names
// through one store, beside readers, leave one snapshot directory per
// member and a data directory that recovers exactly what was served.
func TestStoreConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	s, c := openStore(t, dir)
	db := fig1DB(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				name := fmt.Sprintf("d%d", (g+i)%3)
				var err error
				if i%3 == 2 {
					_, err = s.Delete(name)
				} else {
					_, err = s.PutPlain(name, db)
				}
				if err == nil {
					_, err = c.Run(context.Background(), ncq.Request{Terms: []string{"Bit", "1999"}})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(s.DocDirs()); got != c.Len() {
		t.Errorf("%d snapshot directories for %d members: %v", got, c.Len(), s.DocDirs())
	}
	want := membershipFingerprint(c)
	s.Close()
	s2, c2 := openStore(t, dir)
	defer s2.Close()
	if got := membershipFingerprint(c2); got != want {
		t.Errorf("after restart:\n%s\nwant:\n%s", got, want)
	}
}

// TestStoreReplaceKeepsOtherMembersDirectories: replacing "b" drops
// b's superseded directory and no other — "a-b" ends in "-b" too.
func TestStoreReplaceKeepsOtherMembersDirectories(t *testing.T) {
	dir := t.TempDir()
	s, c := openStore(t, dir)
	for _, name := range []string{"a-b", "b", "b"} {
		if _, err := s.PutPlain(name, fig1DB(t)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.DocDirs(), []string{"g1-a-b", "g3-b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("doc dirs = %v, want %v", got, want)
	}
	want := membershipFingerprint(c)
	s.Close()
	s2, c2 := openStore(t, dir)
	defer s2.Close()
	if got := membershipFingerprint(c2); got != want {
		t.Errorf("after restart:\n%s\nwant:\n%s", got, want)
	}
}

func TestOpenRejectsNonEmptyCorpus(t *testing.T) {
	c := ncq.NewCorpus()
	if err := c.Add("pre", fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir(), wal.PolicyAlways, c); err == nil {
		t.Error("non-empty corpus accepted")
	}
}

func TestDocDirNameEscaping(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	weird := "../etc/passwd? sp%ce"
	if _, err := s.PutPlain(weird, fig1DB(t)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, c2 := openStore(t, dir)
	if !c2.Has(weird) {
		t.Errorf("weird name lost across restart; names = %v", c2.Names())
	}
	// Nothing escaped the data directory.
	if _, err := os.Stat(filepath.Join(dir, "..", "etc")); !os.IsNotExist(err) {
		t.Error("escaped the data directory")
	}
}
