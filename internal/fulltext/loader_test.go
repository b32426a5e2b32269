package fulltext

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ncq/internal/datagen"
	"ncq/internal/leakcheck"
	"ncq/internal/monetx"
	"ncq/internal/shard"
	"ncq/internal/xmltree"
)

// uploadBodies are the documents the loader tests upload: a DBLP
// member large enough that its builder runs on its own goroutine for a
// few chunks; a multimedia document; and one whose second element
// writes its attributes in the opposite order to the first, so the
// order fed is not path order within an owner.
func uploadBodies() map[string]string {
	return map[string]string{
		"dblp":       datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1994, YearTo: 1999, PubsPerVenueYear: 20}).XMLString(),
		"multimedia": datagen.Multimedia(datagen.MultimediaConfig{Seed: 1, Items: 600, MaxProbeDistance: 12}).XMLString(),
		"attr-order": `<r><e b="Bob" a="Byte">x</e><e a="bob" b="BYTE"><e c="1" b="Bob Byte" a="b"/></e></r>`,
	}
}

// loadParts parses src, cut into parts by cut, through NewLoader and
// returns every part's index; a refused parse is aborted, as the
// loader's callers do.
func loadParts(src string, r io.Reader, cut func(int64) bool) ([]*Index, error) {
	var parts []*Index
	l := NewLoader(func(idx *Index) error { parts = append(parts, idx); return nil })
	if r == nil {
		r = strings.NewReader(src)
	}
	if err := xmltree.ParseSplit(r, cut, l); err != nil {
		l.Abort()
		return parts, err
	}
	return parts, nil
}

// needles draws what checkSameIndex asks: about 60 values whole, their
// prefixes and infixes of one to six bytes, and needles no value holds.
func needles(idx *Index) []string {
	out := []string{"", "\x00", "zzqzz", "Bob Bytes & BOB byte — none"}
	step := max(1, len(idx.values)/60)
	for i := 0; i < len(idx.values); i += step {
		v := idx.values[i]
		out = append(out, v)
		for n := 1; n <= 6 && n <= len(v); n++ {
			out = append(out, v[:n], v[(len(v)-n)/2:(len(v)-n)/2+n])
		}
	}
	return out
}

// checkSameIndex holds idx, built beside a load, to New over the store
// it was built for: the same association columns, the same value on
// every row, and the same answers to every search.
func checkSameIndex(t *testing.T, label string, idx *Index) {
	t.Helper()
	want := New(idx.Store())
	if !slices.Equal(idx.owners, want.owners) || !slices.Equal(idx.paths, want.paths) || len(idx.vals) != len(want.vals) {
		t.Fatalf("%s: association columns differ from New's", label)
	}
	for r := range idx.vals {
		if got, w := idx.values[idx.vals[r]], want.values[want.vals[r]]; got != w {
			t.Fatalf("%s: row %d carries %q, New's %q", label, r, got, w)
		}
	}
	for _, n := range needles(want) {
		if got, w := idx.OwnersSubstring(n), want.OwnersSubstring(n); !slices.Equal(got, w) {
			t.Errorf("%s: OwnersSubstring(%q) = %d owners, New's %d", label, n, len(got), len(w))
		}
		if got, w := idx.SearchSubstring(n), want.SearchSubstring(n); !reflect.DeepEqual(got, w) {
			t.Errorf("%s: SearchSubstring(%q) = %d hits, New's %d", label, n, len(got), len(w))
		}
		if got, w := idx.Search(n), want.Search(n); !reflect.DeepEqual(got, w) {
			t.Errorf("%s: Search(%q) = %d hits, New's %d", label, n, len(got), len(w))
		}
	}
	for i, pred := range []func(string) bool{
		func(v string) bool { return len(v)%3 == 0 },
		func(v string) bool { return strings.HasPrefix(v, "1") },
		func(string) bool { return true },
	} {
		if got, w := idx.SearchFunc(pred), want.SearchFunc(pred); !reflect.DeepEqual(got, w) {
			t.Errorf("%s: SearchFunc #%d = %d hits, New's %d", label, i, len(got), len(w))
		}
	}
}

// TestLoaderIndexEqualsNew is the differential of the two ways an index
// is built: beside a load, fed in load order — value ids in that order,
// rows put in (owner, path) order at the end — and by New over the
// sealed store, fed path by path. Over the equality corpus each store
// is walked into the loader; the upload bodies are parsed whole and cut
// into four parts.
func TestLoaderIndexEqualsNew(t *testing.T) {
	for name, store := range equalityCorpus(t) {
		var got []*Index
		if err := store.Emit(store.Root(), NewLoader(func(idx *Index) error { got = append(got, idx); return nil })); err != nil || len(got) != 1 {
			t.Fatalf("%s: %d indexes, err %v", name, len(got), err)
		}
		checkSameIndex(t, name, got[0])
	}
	for name, src := range uploadBodies() {
		for _, k := range []int{1, 4} {
			var cut func(int64) bool
			if k > 1 {
				cut = shard.StreamCut(int64(len(src)/k), k)
			}
			parts, err := loadParts(src, nil, cut)
			if err != nil || len(parts) == 0 {
				t.Fatalf("%s, k=%d: %d parts, err %v", name, k, len(parts), err)
			}
			for i, idx := range parts {
				checkSameIndex(t, fmt.Sprintf("%s, k=%d, part %d", name, k, i), idx)
			}
		}
	}
}

// TestSmallReadsEqualWholeParse parses the DBLP and multimedia bodies
// through readers that hand over one byte, or half of what is asked,
// per Read. A window refilled a byte at a time ends right after each
// "</", so every end tag takes the scanner's fallback, where a whole
// buffer matches it in place; half reads cut names at other places. The
// store's snapshot bytes and stats and the index must equal those of the
// whole-buffer parse.
func TestSmallReadsEqualWholeParse(t *testing.T) {
	snapshot := func(idx *Index) []byte {
		var buf bytes.Buffer
		if err := idx.Store().WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	columns := func(idx *Index) []any {
		return []any{idx.owners, idx.paths, idx.vals, idx.values, idx.valStart, idx.valRows, idx.gramStart, idx.grams}
	}
	bodies := uploadBodies()
	for _, name := range []string{"dblp", "multimedia"} {
		src := bodies[name]
		whole, err := loadParts(src, bytes.NewReader([]byte(src)), nil)
		if err != nil || len(whole) != 1 {
			t.Fatalf("%s: %d parts, err %v", name, len(whole), err)
		}
		for how, r := range map[string]io.Reader{
			"one byte": iotest.OneByteReader(strings.NewReader(src)),
			"half":     iotest.HalfReader(strings.NewReader(src)),
		} {
			got, err := loadParts(src, r, nil)
			switch {
			case err != nil || len(got) != 1:
				t.Fatalf("%s, %s reads: %d parts, err %v", name, how, len(got), err)
			case !bytes.Equal(snapshot(got[0]), snapshot(whole[0])):
				t.Errorf("%s, %s reads: the snapshot differs from the whole parse's", name, how)
			case got[0].Store().Stats() != whole[0].Store().Stats():
				t.Errorf("%s, %s reads: stats %+v, whole parse %+v", name, how, got[0].Store().Stats(), whole[0].Store().Stats())
			case !reflect.DeepEqual(columns(got[0]), columns(whole[0])):
				t.Errorf("%s, %s reads: the index differs from the whole parse's", name, how)
			}
		}
	}
}

// wideBody is a root with two elements of n attributes each: the first
// writes them x0 … x(n-1), which gives their paths out in that order,
// and the second in the same order or, reversed, the opposite one.
func wideBody(n int, reversed bool) string {
	var b strings.Builder
	b.WriteString("<r><a")
	for i := range n {
		fmt.Fprintf(&b, ` x%d="v%d"`, i, i)
	}
	b.WriteString("/><a")
	for i := range n {
		if reversed {
			i = n - 1 - i
		}
		fmt.Fprintf(&b, ` x%d="w%d"`, i, i)
	}
	b.WriteString("/></r>")
	return b.String()
}

// TestWideElementOutOfOrder uploads an element of 20,000 attributes
// written against path order. Its index equals New's, and putting its
// rows in path order costs about what the body in order costs to load,
// not the square of its width.
func TestWideElementOutOfOrder(t *testing.T) {
	const n = 20000
	load := func(src string) (*Index, time.Duration) {
		best := time.Duration(1<<63 - 1)
		var idx *Index
		for range 3 {
			start := time.Now()
			parts, err := loadParts(src, nil, nil)
			best = min(best, time.Since(start))
			if err != nil || len(parts) != 1 {
				t.Fatalf("%d parts, err %v", len(parts), err)
			}
			idx = parts[0]
		}
		return idx, best
	}
	_, inOrder := load(wideBody(n, false))
	idx, reversed := load(wideBody(n, true))
	checkSameIndex(t, "reversed", idx)
	if reversed > 4*inOrder {
		t.Errorf("the reversed element loads in %v, the one in order in %v", reversed, inOrder)
	}
}

// failingReader hands over the first n bytes of a body, then fails.
type failingReader struct {
	r io.Reader
	n int
}

var errMidBody = errors.New("connection reset mid-body")

func (f *failingReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errMidBody
	}
	n, err := f.r.Read(p[:min(len(p), f.n)])
	f.n -= n
	return n, err
}

// keptIsClean reports whether the kept slot is empty or holds a set a
// finished build emptied: an aborted builder's would still hold the ids
// of its rows. No set holds a string: its interner keeps offsets.
func keptIsClean() bool {
	sc := kept.Load()
	return sc == nil || len(sc.in.IDs()) == 0
}

// TestRefusedLoadsLeaveNothing refuses loads mid-build — bodies cut
// short at fifty offsets, a reader that fails mid-body, a second root
// after a completed one — whole and cut into four parts. Each returns
// the parse error and leaves no builder goroutine behind, and the kept
// slot holds no aborted builder's scratch.
func TestRefusedLoadsLeaveNothing(t *testing.T) {
	type refusal struct {
		label string
		src   string
		r     func() io.Reader // nil: the src itself
	}
	var cases []refusal
	for name, src := range uploadBodies() {
		for i := 1; i <= 50; i++ {
			off := len(src) * i / 51
			cases = append(cases, refusal{fmt.Sprintf("%s cut at %d", name, off), src[:off], nil})
		}
		cases = append(cases,
			refusal{name + " failing mid-body", src, func() io.Reader { return &failingReader{strings.NewReader(src), len(src) * 2 / 3} }},
			refusal{name + " with a second root", src + src, nil})
	}
	base := leakcheck.Take()
	for _, c := range cases {
		for _, k := range []int{1, 4} {
			var cut func(int64) bool
			if k > 1 {
				cut = shard.StreamCut(int64(len(c.src)/k), k)
			}
			var r io.Reader
			if c.r != nil {
				r = c.r()
			}
			_, err := loadParts(c.src, r, cut)
			if err == nil {
				t.Fatalf("%s, k=%d: accepted", c.label, k)
			}
			if c.r != nil && !errors.Is(err, errMidBody) {
				t.Errorf("%s, k=%d: err %v, want the reader's", c.label, k, err)
			}
			if base.Check(t, 0, fmt.Sprintf("%s, k=%d", c.label, k)); t.Failed() {
				return // a leaked builder never exits: every later check would wait it out
			}
			if !keptIsClean() {
				t.Fatalf("%s, k=%d: the kept slot holds an aborted builder's scratch", c.label, k)
			}
		}
	}
}

// TestAbortedBuilderKeepsNothing aborts a builder that has taken the
// kept set: the slot stays empty, and the next build starts on fresh
// scratch and equals New.
func TestAbortedBuilderKeepsNothing(t *testing.T) {
	src := uploadBodies()["dblp"]
	if _, err := loadParts(src, nil, nil); err != nil || kept.Load() == nil {
		t.Fatalf("a completed load kept nothing (err %v)", err)
	}
	if _, err := loadParts(src[:len(src)/2], nil, nil); err == nil {
		t.Fatal("a body cut in half was accepted")
	}
	if kept.Load() != nil {
		t.Fatal("the aborted builder gave its scratch back")
	}
	parts, err := loadParts(src, nil, nil)
	if err != nil || len(parts) != 1 {
		t.Fatalf("%d parts, err %v", len(parts), err)
	}
	checkSameIndex(t, "after an abort", parts[0])
}

// restore replays a snapshot through NewLoader and aborts a refused
// replay, as a database's restore does.
func restore(snap []byte) (*Index, error) {
	var got *Index
	l := NewLoader(func(idx *Index) error { got = idx; return nil })
	if _, _, err := monetx.ReplaySnapshot(bytes.NewReader(snap), l); err != nil {
		l.Abort()
		return nil, err
	}
	return got, nil
}

// snapshotOf is the snapshot of an upload of src.
func snapshotOf(t *testing.T, src string) []byte {
	t.Helper()
	parts, err := loadParts(src, nil, nil)
	if err != nil || len(parts) != 1 {
		t.Fatalf("%d parts, err %v", len(parts), err)
	}
	var buf bytes.Buffer
	if err := parts[0].Store().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoredIndexEqualsNew restores each upload body's snapshot: the
// index built beside the replay equals New over the restored store.
func TestRestoredIndexEqualsNew(t *testing.T) {
	for name, src := range uploadBodies() {
		idx, err := restore(snapshotOf(t, src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSameIndex(t, name+", restored", idx)
	}
}

// TestRefusedRestoresLeaveNothing refuses restores mid-build — the DBLP
// snapshot cut short at fifty offsets and with one byte flipped at
// fifty. Each is refused, leaves no builder goroutine behind, and the
// kept slot holds no aborted builder's scratch.
func TestRefusedRestoresLeaveNothing(t *testing.T) {
	raw := snapshotOf(t, uploadBodies()["dblp"])
	base := leakcheck.Take()
	for i := 1; i <= 50; i++ {
		off := len(raw) * i / 51
		flipped := bytes.Clone(raw)
		flipped[off] ^= 0xff
		for _, in := range [][]byte{raw[:off], flipped} {
			if _, err := restore(in); err == nil {
				t.Fatalf("offset %d: accepted", off)
			}
			if base.Check(t, 0, fmt.Sprintf("offset %d", off)); t.Failed() {
				return // a leaked builder never exits: every later check would wait it out
			}
			if !keptIsClean() {
				t.Fatalf("offset %d: the kept slot holds an aborted builder's scratch", off)
			}
		}
	}
}
