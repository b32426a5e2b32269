// Package durable persists a managed corpus: every logical document
// lives in a data directory as per-shard .snap artifacts, and an
// append-only checksummed mutation log (internal/wal) records each
// PUT/DELETE with the corpus generation it produced. A restarted — or
// crashed — node replays log-after-snapshot and comes back at its
// exact pre-crash generation, answering queries byte-identically to
// the process that died.
//
// Layout under the data directory:
//
//	wal.log                      — the mutation log
//	docs/g<gen>-<name>/          — one directory per committed put
//	    shard-000.snap …         — per-shard snapshots (framing i/n)
//	staging/                     — commits in flight; swept at boot
//
// Commit before apply: every change reaches the corpus through
// ncq.Corpus.Commit, whose persist step runs under the corpus write lock
// with the generation the change will produce, before membership
// changes. A put stages its shard snapshots outside the lock, then
// persists by renaming the stage to its generation-stamped directory,
// fsyncing docs/ and appending the WAL record; a delete, by appending
// its record. A refused persist leaves the corpus as it was, and a
// crash before the WAL append leaves an orphan directory that boot
// sweeps away: the corpus recovers to the previous acknowledged state,
// never a half-applied one.
package durable

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ncq"
	"ncq/internal/wal"
)

// compactSlack is how far the log may outgrow the live membership
// before boot rewrites it to just the winning records.
const compactSlack = 64

// Stats describes a store's durability activity.
type Stats struct {
	WAL            wal.Stats
	ReplayRecords  int           // WAL records replayed at boot
	ReplayDocs     int           // documents restored at boot
	ReplayDuration time.Duration // boot recovery time
	SnapshotBytes  uint64        // snapshot bytes written since boot
	Commits        uint64        // acknowledged mutations since boot
	Compactions    uint64        // log rewrites performed
}

// Writer is the one way documents enter and leave a served corpus. A
// node holds exactly one, chosen where it learns whether it has a data
// directory: a *Store persists every change before acknowledging it,
// InMemory only registers it. Nothing that writes — a PUT, a DELETE,
// ncqd -load — asks which one it got.
type Writer interface {
	// Put registers dbs under name: as one plain member (exactly one
	// database) or, when sharded, as one member of len(dbs) shards. It
	// reports whether an existing member was replaced.
	Put(name string, dbs []*ncq.Database, sharded bool) (replaced bool, err error)
	// Delete evicts name and reports whether it was registered.
	Delete(name string) (found bool, err error)
	// Stats reports durability activity; all zero without a directory.
	Stats() Stats
}

// InMemory returns the Writer of a corpus that has no data directory.
func InMemory(c *ncq.Corpus) Writer { return memory{c} }

type memory struct{ c *ncq.Corpus }

func (m memory) Put(name string, dbs []*ncq.Database, sharded bool) (bool, error) {
	if err := checkPut(name, dbs); err != nil {
		return false, err
	}
	return m.c.Commit(name, dbs, sharded, nil)
}

func (m memory) Delete(name string) (bool, error) { return m.c.Commit(name, nil, false, nil) }

func (m memory) Stats() Stats { return Stats{} }

// checkPut refuses a put of no databases, which Corpus.Commit would
// read as an eviction, and a nil one, which no snapshot can hold.
func checkPut(name string, dbs []*ncq.Database) error {
	if len(dbs) == 0 || slices.Contains(dbs, nil) {
		return fmt.Errorf("durable: put %q: no databases, or a nil one", name)
	}
	return nil
}

// Store binds a corpus to a data directory. Every change made through
// it (Put, Delete) is persisted before the corpus applies it; a change
// made to the corpus directly is not persisted at all.
type Store struct {
	dataDir string
	corpus  *ncq.Corpus
	log     *wal.Log

	mu sync.Mutex // serialises commits: one staging directory, one superseded sweep

	replayRecords int
	replayDocs    int
	replayTime    time.Duration
	snapBytes     atomic.Uint64
	commits       atomic.Uint64
	compactions   atomic.Uint64
}

// Open recovers the data directory into corpus and returns the store
// managing it. The corpus must be empty; after Open it holds every
// committed document at the exact logged generation, and all further
// mutations through the store are persisted with the given fsync
// policy.
func Open(dataDir string, policy wal.Policy, corpus *ncq.Corpus) (*Store, error) {
	if corpus.Len() != 0 {
		return nil, fmt.Errorf("durable: corpus already has %d members; recovery needs an empty one", corpus.Len())
	}
	for _, sub := range []string{"", "docs"} {
		if err := os.MkdirAll(filepath.Join(dataDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
	}
	// Staging holds only commits that never finished; a fresh boot owes
	// them nothing.
	if err := os.RemoveAll(filepath.Join(dataDir, "staging")); err != nil {
		return nil, fmt.Errorf("durable: sweep staging: %w", err)
	}

	start := time.Now()
	log, recs, err := wal.Open(filepath.Join(dataDir, "wal.log"), policy)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dataDir: dataDir, corpus: corpus, log: log, replayRecords: len(recs)}

	names, winners, maxGen := replayMembership(recs)
	for _, name := range names {
		if err := s.loadDoc(winners[name]); err != nil {
			log.Close()
			return nil, err
		}
	}
	corpus.RestoreGeneration(maxGen)
	s.replayDocs = len(names)
	s.replayTime = time.Since(start)

	if err := s.sweepOrphans(names, winners); err != nil {
		log.Close()
		return nil, err
	}
	if len(recs) > len(names)+compactSlack {
		if err := s.compact(names, winners, maxGen, policy); err != nil {
			log.Close()
			return nil, err
		}
	}
	return s, nil
}

// replayMembership runs the first recovery pass: it simulates the
// corpus registration order over the logged mutations, returning the
// surviving names in insertion order, each name's winning put, and the
// highest generation the log reached. Registration keeps a replaced
// member's position — exactly what Corpus.register does — so the
// recovered /v1/docs listing and corpus-wide answer order match the
// pre-crash process.
func replayMembership(recs []wal.Record) (names []string, winners map[string]wal.Record, maxGen uint64) {
	winners = make(map[string]wal.Record)
	for _, r := range recs {
		if r.Gen > maxGen {
			maxGen = r.Gen
		}
		switch r.Op {
		case wal.OpPut:
			if _, ok := winners[r.Name]; !ok {
				names = append(names, r.Name)
			}
			winners[r.Name] = r
		case wal.OpDelete:
			if _, ok := winners[r.Name]; ok {
				delete(winners, r.Name)
				for i, n := range names {
					if n == r.Name {
						names = append(names[:i], names[i+1:]...)
						break
					}
				}
			}
		}
	}
	return names, winners, maxGen
}

// docDirName is the directory holding one committed put. The name is
// path-escaped so any logical document name maps to a single safe
// filesystem component.
func docDirName(gen uint64, name string) string {
	return fmt.Sprintf("g%d-%s", gen, url.PathEscape(name))
}

func (s *Store) docsDir() string { return filepath.Join(s.dataDir, "docs") }

func shardFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", i))
}

// loadDoc restores one winning put into the corpus from its snapshot
// directory. A missing or unreadable artifact for a logged commit is a
// hard error: the WAL acknowledged this mutation, so its content must
// exist.
func (s *Store) loadDoc(rec wal.Record) error {
	dir := filepath.Join(s.docsDir(), docDirName(rec.Gen, rec.Name))
	dbs, err := OpenShards(dir, max(rec.Shards, 1))
	if err == nil {
		_, err = s.corpus.Commit(rec.Name, dbs, rec.Shards > 0, nil)
	}
	if err != nil {
		return fmt.Errorf("durable: document %q at generation %d is logged as committed but its snapshot cannot be loaded (%w); the data directory is damaged — restore it from a copy or delete %s AND the wal.log records naming it to abandon the document", rec.Name, rec.Gen, err, dir)
	}
	return nil
}

// OpenShards is the one reader of the shard-NNN.snap layout a put
// commits under docs/: files 0 to n-1 must exist, file i framed i/n, and
// no file n may follow them. Boot recovery knows n from the WAL record;
// n == 0 — ncqd -load of such a directory — takes it from shard-000's
// own framing, where one database framed 0/1 is what a plain member and
// a one-shard member both leave behind.
func OpenShards(dir string, n int) ([]*ncq.Database, error) {
	var dbs []*ncq.Database
	for i := 0; i == 0 || i < n; i++ {
		path := shardFile(dir, i)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		db, shard, shards, err := ncq.OpenSnapshotShard(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if n == 0 {
			n = shards
		}
		if shard != i || shards != n {
			return nil, fmt.Errorf("%s: shard framing %d/%d does not match its place %d/%d", path, shard, shards, i, n)
		}
		dbs = append(dbs, db)
	}
	if _, err := os.Stat(shardFile(dir, n)); err == nil {
		return nil, fmt.Errorf("%s: stray shard file beside a member framed as %d shard(s)", shardFile(dir, n), n)
	}
	return dbs, nil
}

// sweepOrphans removes every docs/ entry that no winning record
// references: directories of replaced or deleted documents, and the
// debris of commits that crashed after the rename but before the WAL
// append.
func (s *Store) sweepOrphans(names []string, winners map[string]wal.Record) error {
	keep := make(map[string]bool, len(names))
	for _, name := range names {
		r := winners[name]
		keep[docDirName(r.Gen, r.Name)] = true
	}
	entries, err := os.ReadDir(s.docsDir())
	if err != nil {
		return fmt.Errorf("durable: sweep: %w", err)
	}
	for _, e := range entries {
		if keep[e.Name()] {
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.docsDir(), e.Name())); err != nil {
			return fmt.Errorf("durable: sweep %s: %w", e.Name(), err)
		}
	}
	return nil
}

// compact rewrites the log to just the winning puts (in registration
// order, preserving recovery order) plus a final OpGen floor, so the
// compacted log replays to the identical membership and generation.
func (s *Store) compact(names []string, winners map[string]wal.Record, maxGen uint64, policy wal.Policy) error {
	live := make([]wal.Record, 0, len(names)+1)
	for _, name := range names {
		live = append(live, winners[name])
	}
	live = append(live, wal.Record{Op: wal.OpGen, Gen: maxGen})
	if err := s.log.Close(); err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	path := filepath.Join(s.dataDir, "wal.log")
	if err := wal.Rewrite(path, live); err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	log, recs, err := wal.Open(path, policy)
	if err != nil {
		return fmt.Errorf("durable: compact reopen: %w", err)
	}
	if len(recs) != len(live) {
		log.Close()
		return fmt.Errorf("durable: compact reopen replayed %d records, want %d", len(recs), len(live))
	}
	s.log = log
	s.compactions.Add(1)
	return nil
}

// PutPlain registers db under name and persists it as a single
// standalone snapshot. The returned replaced mirrors Corpus.Put.
func (s *Store) PutPlain(name string, db *ncq.Database) (replaced bool, err error) {
	return s.Put(name, []*ncq.Database{db}, false)
}

// Put is Writer.Put. It stages one snapshot file per database while
// readers still see the old state, then commits: under the corpus write
// lock it renames the stage to the generation-stamped directory, fsyncs
// docs/ and appends the WAL record, and only then does the corpus
// register the member. A refused commit leaves the corpus unchanged.
func (s *Store) Put(name string, dbs []*ncq.Database, sharded bool) (bool, error) {
	if err := checkPut(name, dbs); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	stage := filepath.Join(s.dataDir, "staging", "commit")
	defer os.RemoveAll(stage) // a no-op once renamed into docs/
	if err := os.RemoveAll(stage); err != nil {
		return false, fmt.Errorf("durable: put %q: %w", name, err)
	}
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return false, fmt.Errorf("durable: put %q: %w", name, err)
	}
	for i, db := range dbs {
		if err := s.writeShardFile(shardFile(stage, i), db, i, len(dbs)); err != nil {
			return false, fmt.Errorf("durable: put %q: %w", name, err)
		}
	}

	// The record's shard count is 0 for a plain member, so recovery
	// restores plain vs sharded registration exactly.
	shards := 0
	if sharded {
		shards = len(dbs)
	}
	var final string
	replaced, err := s.corpus.Commit(name, dbs, sharded, func(gen uint64) error {
		final = filepath.Join(s.docsDir(), docDirName(gen, name))
		wal.Crashpoint("rename-pre")
		if err := os.Rename(stage, final); err != nil {
			return err
		}
		wal.Crashpoint("rename-post")
		err := wal.SyncDir(s.docsDir())
		if err == nil {
			err = s.log.Append(wal.Record{Op: wal.OpPut, Gen: gen, Name: name, Shards: shards})
		}
		// A failed log may hold the whole record, which names this
		// directory; boot keeps it or sweeps it by what replay finds.
		if err != nil && !s.log.Failed() {
			os.RemoveAll(final)
		}
		return err
	})
	if err != nil {
		return false, fmt.Errorf("durable: put %q: %w", name, err)
	}
	s.commits.Add(1)
	s.dropSuperseded(name, filepath.Base(final))
	return replaced, nil
}

// Delete is Writer.Delete: the eviction's WAL record is appended under
// the corpus write lock before the member leaves the corpus, and the
// member's snapshot directory is removed after.
func (s *Store) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	found, err := s.corpus.Commit(name, nil, false, func(gen uint64) error {
		return s.log.Append(wal.Record{Op: wal.OpDelete, Gen: gen, Name: name})
	})
	if err != nil {
		return found, fmt.Errorf("durable: delete %q: %w", name, err)
	}
	if found {
		s.commits.Add(1)
		s.dropSuperseded(name, "")
	}
	return found, nil
}

// dropSuperseded removes every snapshot directory of name but keep
// once the commit that superseded them is logged. It is best-effort: a
// crash first leaves orphans the next boot sweeps.
func (s *Store) dropSuperseded(name, keep string) {
	entries, err := os.ReadDir(s.docsDir())
	if err != nil {
		return
	}
	escaped := url.PathEscape(name)
	for _, e := range entries {
		// g<gen>-<escaped name>: the generation holds no '-', so the
		// first one ends it and the rest is the whole name.
		if _, rest, ok := strings.Cut(e.Name(), "-"); ok && rest == escaped && e.Name() != keep {
			os.RemoveAll(filepath.Join(s.docsDir(), e.Name()))
		}
	}
}

// writeShardFile persists one shard snapshot through wal.WriteFile.
func (s *Store) writeShardFile(path string, db *ncq.Database, shard, shards int) error {
	return wal.WriteFile(path, func(w io.Writer) error {
		return db.SaveSnapshotShard(&countingWriter{wal.CrashWriter(w, "snapshot-mid"), &s.snapBytes}, shard, shards)
	})
}

// countingWriter adds every byte it writes to n.
type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// Stats returns the store's durability counters.
func (s *Store) Stats() Stats {
	return Stats{
		WAL:            s.log.Stats(),
		ReplayRecords:  s.replayRecords,
		ReplayDocs:     s.replayDocs,
		ReplayDuration: s.replayTime,
		SnapshotBytes:  s.snapBytes.Load(),
		Commits:        s.commits.Load(),
		Compactions:    s.compactions.Load(),
	}
}

// Close closes the log; a later Put or Delete is refused.
func (s *Store) Close() error { return s.log.Close() }

// DocDirs lists the committed snapshot directories in docs/, sorted —
// a debugging and test aid.
func (s *Store) DocDirs() []string {
	entries, err := os.ReadDir(s.docsDir())
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}
