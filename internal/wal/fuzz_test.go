package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzWALReplay hands Open arbitrary bytes as wal.log, the one input a
// node reads back that no one else checks first. Open never panics; when
// it succeeds a second Open returns the same records, and the file is
// exactly the magic and those records re-encoded — a torn tail cut
// away, nothing else changed. When it fails the error is a CorruptError
// or names the log.
func FuzzWALReplay(f *testing.F) {
	var valid []byte
	valid = append(valid, magic...)
	for _, r := range []Record{
		{Op: OpPut, Gen: 1, Name: "dblp", Shards: 4},
		{Op: OpDelete, Gen: 2, Name: "dblp"},
		{Op: OpGen, Gen: 9},
	} {
		b, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, b...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn payload
	f.Add(valid[:len(magic)+5]) // torn header
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add([]byte("NCQWAL00"))
	// A record Append could never write: a name past the record bound.
	long := append([]byte{byte(OpPut)}, make([]byte, 8)...)
	long = binary.LittleEndian.AppendUint16(long, maxRecord/2+1)
	long = append(long, bytes.Repeat([]byte{'n'}, maxRecord/2+1)...)
	long = binary.LittleEndian.AppendUint16(long, 1)
	framed := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(long)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(long))
	f.Add(append(framed, long...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, PolicyOff)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) && !strings.HasPrefix(err.Error(), "wal: ") {
				t.Fatalf("Open failed with an unnamed error: %v", err)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want := []byte(magic)
		for _, r := range recs {
			b, err := encodeRecord(r)
			if err != nil {
				t.Fatalf("a recovered record (op %d, gen %d, %d-byte name) does not re-encode: %v", r.Op, r.Gen, len(r.Name), err)
			}
			want = append(want, b...)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the kept log is not its records re-encoded (err %v): %d bytes, want %d", err, len(got), len(want))
		}
		if len(data) >= len(magic) && !bytes.HasPrefix(data, want) {
			t.Fatalf("Open kept %d bytes that are not a prefix of the input", len(want))
		}
		l2, again, err := Open(path, PolicyOff)
		if err != nil {
			t.Fatalf("the kept log does not reopen: %v", err)
		}
		l2.Close()
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("a second Open returns %d records, the first %d, or others", len(again), len(recs))
		}
	})
}
