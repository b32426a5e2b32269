package ncq

import (
	"fmt"
	"io"

	"ncq/internal/monetx"
)

// SaveSnapshot persists the loaded database in a compact binary form —
// the events that load its store — that OpenSnapshot reloads without
// parsing the XML. The index is rebuilt on load (it is derived data).
func (db *Database) SaveSnapshot(w io.Writer) error { return db.SaveSnapshotShard(w, 0, 1) }

// SaveSnapshotShard is SaveSnapshot with per-shard framing: the
// snapshot records that this database is shard `shard` of a
// `shards`-way split of one logical document. OpenSnapshotShard
// returns the framing, which is how a durable data directory knows how
// to reassemble a sharded member from its .snap files.
func (db *Database) SaveSnapshotShard(w io.Writer, shard, shards int) error {
	if err := db.store.WriteSnapshotShard(w, shard, shards); err != nil {
		return fmt.Errorf("ncq: %w", err)
	}
	return nil
}

// OpenSnapshot loads a database from a snapshot written by
// SaveSnapshot. The result answers every query identically to the
// database that was saved.
func OpenSnapshot(r io.Reader) (*Database, error) {
	db, _, _, err := OpenSnapshotShard(r)
	return db, err
}

// OpenSnapshotShard loads a database from a snapshot and returns its
// shard framing alongside (0 of 1 for a standalone snapshot). The
// snapshot replays into the loader an upload shreds into, so its index
// is built beside the decode, as an upload's is beside the parse.
func OpenSnapshotShard(r io.Reader) (db *Database, shard, shards int, err error) {
	var dbs []*Database
	l := loaderInto(&dbs)
	if shard, shards, err = monetx.ReplaySnapshot(r, l); err != nil {
		l.Abort()
		return nil, 0, 0, fmt.Errorf("ncq: %w", err)
	}
	return dbs[0], shard, shards, nil
}
