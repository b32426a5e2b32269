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
// Commit protocol for a put: the shard snapshots are staged (written,
// fsynced, directory fsynced) before the corpus mutation; under the
// corpus write lock the staging directory is renamed to its final
// generation-stamped name and the WAL record appended; only then is
// the request acknowledged. A crash at any point before the WAL append
// leaves an orphan directory that boot sweeps away — the corpus
// recovers to the previous acknowledged state, never a half-applied
// one.
package durable

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
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
	if sharded {
		return m.c.AddShardDBs(name, dbs)
	}
	if len(dbs) != 1 {
		return false, fmt.Errorf("durable: put %q: a plain member is one database, not %d", name, len(dbs))
	}
	return m.c.Put(name, dbs[0])
}

func (m memory) Delete(name string) (bool, error) { return m.c.Remove(name), nil }

func (m memory) Stats() Stats { return Stats{} }

// Store binds a corpus to a data directory. All mutations must go
// through the store (Put, Delete); it installs a
// corpus mutation hook that persists each change before the mutating
// call returns.
type Store struct {
	dataDir string
	corpus  *ncq.Corpus
	log     *wal.Log

	mu        sync.Mutex // serialises commits; held around every corpus mutation
	pending   *pendingPut
	commitErr error
	prevDirs  []string // superseded directories to drop after a commit

	replayRecords int
	replayDocs    int
	replayTime    time.Duration
	snapBytes     atomic.Uint64
	commits       atomic.Uint64
	compactions   atomic.Uint64
}

// pendingPut carries a staged commit from the public put methods into
// the mutation hook that finishes it under the corpus write lock.
type pendingPut struct {
	name   string
	shards int // 0 for a plain member
	stage  string
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

	corpus.SetMutationHook(s.onMutation)
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
		_, err = memory{s.corpus}.Put(rec.Name, dbs, rec.Shards > 0)
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

// PutShards registers dbs as one sharded member and persists each
// shard as its own snapshot file.
func (s *Store) PutShards(name string, dbs []*ncq.Database) (replaced bool, err error) {
	return s.Put(name, dbs, true)
}

// Put is Writer.Put: it stages one snapshot file per database, then
// registers the member — the corpus mutation hook finishes the commit.
func (s *Store) Put(name string, dbs []*ncq.Database, sharded bool) (bool, error) {
	if len(dbs) == 0 || (!sharded && len(dbs) != 1) {
		return false, fmt.Errorf("durable: put %q: bad shard count %d", name, len(dbs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Stage the snapshots before touching the corpus: the expensive,
	// fallible work happens while readers still see the old state.
	stage := filepath.Join(s.dataDir, "staging", "commit")
	if err := os.RemoveAll(stage); err != nil {
		return false, fmt.Errorf("durable: put %q: %w", name, err)
	}
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return false, fmt.Errorf("durable: put %q: %w", name, err)
	}
	for i, db := range dbs {
		if db == nil {
			return false, fmt.Errorf("durable: put %q: nil shard %d", name, i)
		}
		if err := s.writeShardFile(shardFile(stage, i), db, i, len(dbs)); err != nil {
			return false, fmt.Errorf("durable: put %q: %w", name, err)
		}
	}
	if err := wal.SyncDir(stage); err != nil {
		return false, fmt.Errorf("durable: put %q: %w", name, err)
	}

	s.pending = &pendingPut{name: name, stage: stage}
	if sharded {
		s.pending.shards = len(dbs)
	}
	s.commitErr = nil
	s.prevDirs = nil

	replaced, err := memory{s.corpus}.Put(name, dbs, sharded)
	s.pending = nil
	if err == nil {
		err = s.commitErr
	}
	if err != nil {
		os.RemoveAll(stage)
		return false, err
	}
	s.commits.Add(1)
	s.dropPrevDirs()
	return replaced, nil
}

// Delete evicts name from the corpus and logs the eviction; the
// snapshot directory is removed once the record is durable.
func (s *Store) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitErr = nil
	s.prevDirs = nil
	if !s.corpus.Remove(name) {
		return false, nil
	}
	if s.commitErr != nil {
		return true, s.commitErr
	}
	s.commits.Add(1)
	s.dropPrevDirs()
	return true, nil
}

// onMutation is the corpus mutation hook: it runs under the corpus
// write lock (and, because every mutation routes through the store's
// methods, under s.mu), seeing the exact generation the mutation
// produced. It finishes the commit — rename for puts, log append for
// both — so by the time the mutating call returns, the change is as
// durable as the fsync policy promises.
func (s *Store) onMutation(m ncq.Mutation) {
	if m.Delete {
		if err := s.log.Append(wal.Record{Op: wal.OpDelete, Gen: m.Gen, Name: m.Name}); err != nil {
			s.commitErr = err
			return
		}
		s.markSuperseded(m.Name, 0)
		return
	}
	p := s.pending
	if p == nil || p.name != m.Name || p.shards != m.Shards {
		s.commitErr = fmt.Errorf("durable: corpus mutation of %q bypassed the store; the change is in memory but not persisted", m.Name)
		return
	}
	final := filepath.Join(s.docsDir(), docDirName(m.Gen, m.Name))
	wal.Crashpoint("rename-pre")
	if err := os.Rename(p.stage, final); err != nil {
		s.commitErr = err
		return
	}
	wal.Crashpoint("rename-post")
	if err := wal.SyncDir(s.docsDir()); err != nil {
		s.commitErr = err
		return
	}
	// m.Shards is 0 for a plain member; the record preserves that so
	// recovery restores plain vs sharded registration exactly.
	if err := s.log.Append(wal.Record{Op: wal.OpPut, Gen: m.Gen, Name: m.Name, Shards: m.Shards}); err != nil {
		s.commitErr = err
		return
	}
	s.markSuperseded(m.Name, m.Gen)
}

// markSuperseded queues every directory of name other than keepGen for
// removal after the commit acknowledges. Removal is deferred out of
// the corpus lock; a crash first leaves orphans the next boot sweeps.
func (s *Store) markSuperseded(name string, keepGen uint64) {
	entries, err := os.ReadDir(s.docsDir())
	if err != nil {
		return // sweep at next boot
	}
	suffix := "-" + url.PathEscape(name)
	keep := docDirName(keepGen, name)
	for _, e := range entries {
		if e.Name() != keep && strings.HasSuffix(e.Name(), suffix) && strings.HasPrefix(e.Name(), "g") {
			s.prevDirs = append(s.prevDirs, filepath.Join(s.docsDir(), e.Name()))
		}
	}
}

func (s *Store) dropPrevDirs() {
	for _, dir := range s.prevDirs {
		os.RemoveAll(dir) // best-effort; boot sweeps leftovers
	}
	s.prevDirs = nil
}

// writeShardFile persists one shard snapshot with the full crash-safe
// discipline: temp file in the same directory, fsync, atomic rename.
func (s *Store) writeShardFile(path string, db *ncq.Database, shard, shards int) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	cw := &countingWriter{w: wal.CrashWriter(tmp, "snapshot-mid")}
	if err := db.SaveSnapshotShard(cw, shard, shards); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	s.snapBytes.Add(uint64(cw.n))
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
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

// Close detaches the store from the corpus and closes the log.
func (s *Store) Close() error {
	s.corpus.SetMutationHook(nil)
	return s.log.Close()
}

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
