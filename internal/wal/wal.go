// Package wal is the durability spine of a managed corpus: an
// append-only, checksummed, length-prefixed mutation log. Every
// membership mutation (document PUT or DELETE) is recorded together
// with the corpus generation it produced, so a restarted — or crashed
// — node can replay the log over its snapshot artifacts and come back
// at its exact pre-crash generation, preserving the generation-stamped
// cursor and cluster generation-vector invariants.
//
// On-disk format (all integers little-endian):
//
//	file:   magic "NCQWAL01" | record*
//	record: u32 payloadLen | u32 crc32(payload) | payload
//	payload: u8 op | u64 gen | u16 nameLen | name | u16 shards
//
// Recovery discipline (Open): a half-written final record — the
// signature of a crash mid-append — is dropped by truncating the file
// back to the last whole record. Anything earlier that fails its
// checksum is not a torn write (appends never leave valid data after
// a torn region) but corruption, and is a hard error carrying the
// byte offset so an operator can decide what to salvage.
//
// Appends follow a configurable fsync policy: PolicyAlways syncs
// before an append returns (no acknowledged mutation is ever lost),
// PolicyBatch coalesces syncs to at most one per BatchInterval
// (bounded loss window, much higher mutation throughput), PolicyOff
// leaves syncing to the OS (crash durability limited to what the page
// cache happened to flush).
//
// A failed write or fsync fails the log: it may have left part of a
// record on disk, and a record appended after it would turn a torn tail
// into interior corruption. So every later append is refused until a
// restart, whose replay decides what the failed record left.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Op discriminates log records.
type Op uint8

const (
	// OpPut records a document registration (add or replace); the
	// record's Gen names the snapshot directory holding its shards.
	OpPut Op = 1
	// OpDelete records a document eviction.
	OpDelete Op = 2
	// OpGen raises the generation floor without changing membership.
	// Compaction writes one as the final record so a compacted log
	// replays to the same generation as the history it replaced.
	OpGen Op = 3
)

// Record is one logged mutation.
type Record struct {
	Op     Op
	Gen    uint64 // corpus generation after the mutation
	Name   string // logical document name; empty for OpGen
	Shards int    // shard count of a put; 0 otherwise
}

const (
	magic = "NCQWAL01"
	// maxRecord bounds one record's payload; records hold metadata
	// (name + fixed fields), never document content, so anything
	// larger is corruption, not data.
	maxRecord = 1 << 16
	headerLen = 8 // u32 len + u32 crc
)

// Policy selects when appends reach stable storage.
type Policy int

const (
	// PolicyAlways fsyncs before every append returns.
	PolicyAlways Policy = iota
	// PolicyBatch coalesces fsyncs to at most one per BatchInterval;
	// an acknowledged mutation may be lost to a crash inside the
	// window.
	PolicyBatch
	// PolicyOff never fsyncs; the OS decides.
	PolicyOff
)

// BatchInterval is the widest window PolicyBatch leaves between an
// acknowledged append and the fsync that makes it durable.
const BatchInterval = 100 * time.Millisecond

// ParsePolicy maps the -fsync flag values onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "batch":
		return PolicyBatch, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want \"always\", \"batch\" or \"off\")", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyBatch:
		return "batch"
	case PolicyOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// CorruptError reports a checksum or framing failure before the final
// record — damage no crash can explain, which recovery must not paper
// over. The operator playbook lives in docs/OPERATIONS.md.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: corrupt record at byte %d: %s; the log cannot be replayed past this point — restore the data directory from a copy, or truncate the log at this offset to accept losing every later mutation", e.Path, e.Offset, e.Reason)
}

// Stats counts a log's activity since Open.
type Stats struct {
	Appends   uint64 // records appended
	Fsyncs    uint64 // fsyncs issued by appends, Sync and Close
	Bytes     uint64 // bytes appended, framing included
	Replayed  int    // records recovered by Open
	Truncated bool   // Open dropped a torn final record
	Failed    bool   // a write or fsync failed; appends are refused until a restart
}

// Log is an open, append-only mutation log. Safe for concurrent use.
type Log struct {
	path   string
	policy Policy

	mu       sync.Mutex
	f        *os.File
	lastSync time.Time
	dirty    bool
	failErr  error // the first failed write or fsync; refuses every later append

	appends  atomic.Uint64
	fsyncs   atomic.Uint64
	bytes    atomic.Uint64
	failed   atomic.Bool // failErr != nil, readable without the lock
	replayed int
	torn     bool
}

// Open recovers the log at path (creating it if absent) and returns
// the append handle plus every recovered record in append order. A
// torn final record is truncated away silently; earlier corruption
// fails with a *CorruptError.
func Open(path string, policy Policy) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	recs, keep, torn, err := readRecords(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if torn {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek: %w", err)
	}
	l := &Log{path: path, policy: policy, f: f, lastSync: time.Now(), replayed: len(recs), torn: torn}
	return l, recs, nil
}

// readRecords reads every whole record, distinguishing a torn tail
// (keep = offset of the last whole record, torn = true) from interior
// corruption (a *CorruptError).
func readRecords(f *os.File, path string) (recs []Record, keep int64, torn bool, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, fmt.Errorf("wal: seek: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: size: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, fmt.Errorf("wal: seek: %w", err)
	}
	if size == 0 {
		// Fresh log: stamp the magic immediately so a crash before the
		// first append still leaves a recognisable file.
		if _, err := f.Write([]byte(magic)); err != nil {
			return nil, 0, false, fmt.Errorf("wal: write magic: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, 0, false, fmt.Errorf("wal: sync magic: %w", err)
		}
		return nil, int64(len(magic)), false, nil
	}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != magic {
		if err == nil {
			err = errors.New("bad magic")
		}
		return nil, 0, false, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("not a wal file: %v", err)}
	}
	off := int64(len(magic))
	buf := make([]byte, 0, 4096)
	for off < size {
		remaining := size - off
		if remaining < headerLen {
			return recs, off, true, nil // torn header
		}
		var frame [headerLen]byte
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			return nil, 0, false, fmt.Errorf("wal: read at %d: %w", off, err)
		}
		plen := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if plen > maxRecord {
			return nil, 0, false, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("record length %d exceeds the %d byte bound", plen, maxRecord)}
		}
		if remaining < headerLen+int64(plen) {
			return recs, off, true, nil // torn payload
		}
		if cap(buf) < int(plen) {
			buf = make([]byte, plen)
		}
		buf = buf[:plen]
		if _, err := io.ReadFull(f, buf); err != nil {
			return nil, 0, false, fmt.Errorf("wal: read at %d: %w", off, err)
		}
		if crc32.ChecksumIEEE(buf) != sum {
			return nil, 0, false, &CorruptError{Path: path, Offset: off, Reason: "checksum mismatch"}
		}
		rec, err := decodeRecord(buf)
		if err != nil {
			return nil, 0, false, &CorruptError{Path: path, Offset: off, Reason: err.Error()}
		}
		recs = append(recs, rec)
		off += headerLen + int64(plen)
	}
	return recs, off, false, nil
}

// encodeRecord renders the framed record: header + payload.
func encodeRecord(r Record) ([]byte, error) {
	if len(r.Name) > maxRecord/2 {
		return nil, fmt.Errorf("wal: name of %d bytes exceeds the record bound", len(r.Name))
	}
	payload := make([]byte, 0, 13+len(r.Name))
	payload = append(payload, byte(r.Op))
	payload = binary.LittleEndian.AppendUint64(payload, r.Gen)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(r.Name)))
	payload = append(payload, r.Name...)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(r.Shards))
	out := make([]byte, 0, headerLen+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...), nil
}

func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < 13 {
		return Record{}, fmt.Errorf("payload of %d bytes is shorter than the fixed fields", len(payload))
	}
	var r Record
	r.Op = Op(payload[0])
	switch r.Op {
	case OpPut, OpDelete, OpGen:
	default:
		return Record{}, fmt.Errorf("unknown op %d", payload[0])
	}
	r.Gen = binary.LittleEndian.Uint64(payload[1:9])
	nameLen := int(binary.LittleEndian.Uint16(payload[9:11]))
	switch {
	case len(payload) != 13+nameLen:
		return Record{}, fmt.Errorf("payload of %d bytes does not match name length %d", len(payload), nameLen)
	case nameLen > maxRecord/2:
		return Record{}, fmt.Errorf("name of %d bytes exceeds the record bound", nameLen) // no append writes it
	}
	r.Name = string(payload[11 : 11+nameLen])
	r.Shards = int(binary.LittleEndian.Uint16(payload[11+nameLen:]))
	return r, nil
}

// Append logs one record, making it durable per the fsync policy
// before returning. Under PolicyAlways a nil return means the record
// survives any crash from here on; an error that fails the log leaves
// it to a restart's replay whether the record is on disk.
func (l *Log) Append(r Record) error {
	b, err := encodeRecord(r)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: append to closed log")
	}
	if l.failErr != nil {
		return fmt.Errorf("wal: log failed; restart to recover: %w", l.failErr)
	}
	Crashpoint("wal-append-pre")
	if err := crashyWrite(l.f, b, "wal-append-mid"); err != nil {
		return l.fail(fmt.Errorf("wal: append: %w", err))
	}
	l.appends.Add(1)
	l.bytes.Add(uint64(len(b)))
	l.dirty = true
	switch l.policy {
	case PolicyAlways:
		return l.syncLocked()
	case PolicyBatch:
		if time.Since(l.lastSync) >= BatchInterval {
			return l.syncLocked()
		}
	}
	return nil
}

// Sync forces pending appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: sync of closed log")
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.fsyncs.Add(1)
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// fail records the log's first failure and returns err; the caller
// holds the lock.
func (l *Log) fail(err error) error {
	if l.failErr == nil {
		l.failErr = err
		l.failed.Store(true)
	}
	return err
}

// Failed reports whether a write or fsync has failed, after which every
// append is refused until the log is reopened.
func (l *Log) Failed() bool { return l.failed.Load() }

// Close syncs pending appends and releases the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Stats returns activity counters since Open.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.appends.Load(),
		Fsyncs:    l.fsyncs.Load(),
		Bytes:     l.bytes.Load(),
		Replayed:  l.replayed,
		Truncated: l.torn,
		Failed:    l.failed.Load(),
	}
}

// Rewrite atomically replaces the log at path with one holding exactly
// recs (see WriteFile). This is the compaction primitive: the caller
// passes the live history (winning puts plus a final OpGen floor).
func Rewrite(path string, recs []Record) error {
	buf := []byte(magic)
	for _, r := range recs {
		b, err := encodeRecord(r)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write(buf); return err }); err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	return nil
}

// WriteFile is the one crash-safe file writer: write fills a temp file
// in path's directory, which is fsynced, renamed over path, and the
// directory fsynced — a crash at any point leaves either the old file
// or the new one, never a mix, and a nil return means the new one
// survives a crash.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op once renamed
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-renamed entry survives a
// crash. Rename makes the swap atomic; the directory sync makes it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
