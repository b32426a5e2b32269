package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"ncq"
)

// meetLine is the reference a meet line is pinned against: what
// encoding/json makes of the record.
type meetLine struct {
	Meet *ncq.CorpusMeet `json:"meet"`
}

// brokenWriter is a ResponseWriter whose client goes away: it takes
// room bytes (all of them when room < 0), then every Write fails.
type brokenWriter struct {
	header  http.Header
	code    int
	body    bytes.Buffer
	room    int
	refused int // Write calls that failed
	flushed int // body length at the last Flush
}

func (b *brokenWriter) Header() http.Header  { return b.header }
func (b *brokenWriter) WriteHeader(code int) { b.code = code }
func (b *brokenWriter) Flush()               { b.flushed = b.body.Len() }
func (b *brokenWriter) Write(p []byte) (int, error) {
	if b.room >= 0 && b.body.Len()+len(p) > b.room {
		b.refused++
		return 0, errors.New("broken pipe")
	}
	return b.body.Write(p)
}

// TestStreamWriterFailBeforeStart: a failure before the first line
// still gets a status line and the ordinary envelope. After it, an
// error line ends the stream and is flushed; a failed write is sticky
// (Meet says stop, nothing more is buffered or written); and nothing
// reaches the ResponseWriter once Close has returned, not even a timer
// that lost the race with it.
func TestStreamWriterFailBeforeStart(t *testing.T) {
	line := string(AppendMeetLine(nil, &goldenMeet))
	perBudget := (flushBytes + len(line) - 1) / len(line) // meets until a budget flushes
	cases := []struct {
		name string
		room int
		run  func(t *testing.T, sw *StreamWriter, w *brokenWriter)
	}{
		{"fail before start", -1, func(t *testing.T, sw *StreamWriter, w *brokenWriter) {
			sw.Fail(http.StatusGone, errors.New("stale"))
			if w.code != http.StatusGone || w.body.String() != `{"error":"stale"}`+"\n" {
				t.Errorf("got %d %s", w.code, &w.body)
			}
		}},
		{"fail after start", -1, func(t *testing.T, sw *StreamWriter, w *brokenWriter) {
			for i := 0; i < 3; i++ {
				if !sw.Meet(&Answer{CorpusMeet: goldenMeet}) {
					t.Fatalf("meet %d refused", i)
				}
			}
			sw.Fail(http.StatusBadGateway, errors.New("boom"))
			want := strings.Repeat(line, 3) + `{"error":"boom"}` + "\n"
			if w.code != http.StatusOK || w.body.String() != want || w.flushed != len(want) {
				t.Errorf("got %d, %d of %d bytes flushed:\n%s", w.code, w.flushed, len(want), &w.body)
			}
		}},
		{"client gone at the first meet", 0, func(t *testing.T, sw *StreamWriter, w *brokenWriter) {
			if sw.Meet(&Answer{CorpusMeet: goldenMeet}) || sw.Meet(&Answer{CorpusMeet: goldenMeet}) {
				t.Error("Meet reported a live client")
			}
			sw.Trailer(Trailer{})
			if w.refused != 1 || len(sw.buf) != 0 {
				t.Errorf("%d failed writes, %d bytes still buffered", w.refused, len(sw.buf))
			}
		}},
		{"client gone in the tail", len(line), func(t *testing.T, sw *StreamWriter, w *brokenWriter) {
			accepted := 0
			for sw.Meet(&Answer{CorpusMeet: goldenMeet}) {
				if accepted++; accepted > perBudget {
					t.Fatalf("%d meets accepted: the failed flush was never noticed", accepted)
				}
			}
			for i := 0; i < 2*perBudget; i++ {
				if sw.Meet(&Answer{CorpusMeet: goldenMeet}) {
					t.Fatal("Meet reported a live client after a failed flush")
				}
			}
			sw.Fail(http.StatusBadGateway, errors.New("boom"))
			if w.refused != 1 || len(sw.buf) != 0 || w.body.String() != line {
				t.Errorf("%d failed writes, %d bytes still buffered, body %q", w.refused, len(sw.buf), &w.body)
			}
		}},
		{"nothing after close", -1, func(t *testing.T, sw *StreamWriter, w *brokenWriter) {
			for i := 0; i < 3; i++ {
				sw.Meet(&Answer{CorpusMeet: goldenMeet})
			}
			sw.Close()
			if want := strings.Repeat(line, 3); w.body.String() != want || w.flushed != len(want) {
				t.Errorf("after Close: %d bytes flushed, body %q", w.flushed, &w.body)
			}
			w.room = 0 // any further Write is counted
			sw.flushLate()
			if sw.Meet(&Answer{CorpusMeet: goldenMeet}) {
				t.Error("Meet after Close reported a live client")
			}
			sw.Trailer(Trailer{})
			sw.flushLate()
			if w.refused != 0 {
				t.Errorf("%d writes reached the ResponseWriter after Close", w.refused)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := &brokenWriter{header: http.Header{}, room: c.room}
			sw := NewStreamWriter(w, httptest.NewRequest("POST", "/v2/query?stream=1", nil), nil, nil, nil)
			defer sw.Close()
			c.run(t, sw, w)
		})
	}
}

// waitForGoroutines polls until the goroutine count is back at base.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines, %d before the listener started", got, base)
	}
}

// TestStreamWriterStallFlush pins the delay bound on a real listener:
// a producer that writes 50 meets and then stalls has not parked 49 of
// them in the writer — the client reads all 50 while the handler is
// still blocked. The handler then finishes cleanly, and neither it nor
// the stream's timer outlives the server.
func TestStreamWriterStallFlush(t *testing.T) {
	base := runtime.NumGoroutine()
	const meets = 50
	lastWrite := make(chan time.Time, 1)
	release := make(chan struct{})
	returned := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		sw := NewStreamWriter(w, r, nil, nil, nil)
		defer sw.Close()
		for i := 0; i < meets; i++ {
			if !sw.Meet(&Answer{CorpusMeet: goldenMeet}) {
				t.Error("client gone")
				return
			}
		}
		lastWrite <- time.Now()
		select {
		case <-release:
		case <-time.After(time.Second):
		}
		sw.Trailer(Trailer{})
	}))
	resp, err := srv.Client().Post(srv.URL+"/v2/query?stream=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewLineScanner(resp.Body)
	for i := 0; i < meets; i++ {
		if ln, err := sc.Next(); err != nil || ln.Meet == nil {
			t.Fatalf("line %d: %+v, %v", i, ln, err)
		}
	}
	if late := time.Since(<-lastWrite); late > 250*time.Millisecond {
		t.Errorf("the stalled producer's lines arrived %v after it wrote them", late)
	}
	close(release)
	if ln, err := sc.Next(); err != nil || !ln.Trailer {
		t.Errorf("after the stall: %+v, %v", ln, err)
	}
	resp.Body.Close()
	<-returned
	srv.Close()
	waitForGoroutines(t, base)
}

// TestStreamWriterClientGone: on a real listener, a client that hangs
// up mid-answer stops the producer — Meet reports it once a flush has
// failed — and the handler returns with nothing left behind.
func TestStreamWriterClientGone(t *testing.T) {
	base := runtime.NumGoroutine()
	returned := make(chan int, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := NewStreamWriter(w, r, nil, nil, nil)
		defer sw.Close()
		n := 0
		for sw.Meet(&Answer{CorpusMeet: goldenMeet}) && n < 1<<20 {
			n++
		}
		returned <- n
	}))
	resp, err := srv.Client().Post(srv.URL+"/v2/query?stream=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ln, err := NewLineScanner(resp.Body).Next(); err != nil || ln.Meet == nil {
		t.Fatalf("first line: %+v, %v", ln, err)
	}
	resp.Body.Close()
	if n := <-returned; n == 1<<20 {
		t.Error("the producer never learned that its client was gone")
	}
	srv.Close()
	waitForGoroutines(t, base)
}

// TestStreamWriterCloseRacesTimer: Close races the delay timer's flush
// on a pooled tail buffer, and the buffer goes straight to the next
// stream. Close waits out a flush already running, and a later one
// finds the writer dead, so the race detector sees no access to a
// buffer after it went back, and no stream reads another's bytes.
func TestStreamWriterCloseRacesTimer(t *testing.T) {
	line := string(AppendMeetLine(nil, &goldenMeet))
	for i := 0; i < 200; i++ {
		w := &brokenWriter{header: http.Header{}, room: -1}
		sw := NewStreamWriter(w, httptest.NewRequest("POST", "/v2/query?stream=1", nil), nil, nil, nil)
		for j := 0; j < 3; j++ { // the head, then two tail lines and the timer
			sw.Meet(&Answer{CorpusMeet: goldenMeet})
		}
		time.Sleep(flushDelay - time.Duration(i%5)*flushDelay/4)
		sw.Close()
		if want := strings.Repeat(line, 3); w.body.String() != want {
			t.Fatalf("round %d: the client read %q", i, &w.body)
		}
	}
}

// TestOutgrownBuffersNotPooled: a tail line longer than the budget and
// a scanned line grown toward MaxLine move their stream's buffer to a
// larger array, which the collector takes — no pool hands it out. Each
// pool is read right after the Close that fed it, before the next
// large allocation can bring a collection that empties it.
func TestOutgrownBuffersNotPooled(t *testing.T) {
	pooled := func(p *sync.Pool, want int) {
		t.Helper()
		for i := 0; i < 4; i++ {
			b := getBuffer(p)
			defer p.Put(b)
			if cap(*b) != want {
				t.Errorf("the pool handed out a %d-byte buffer, its class is %d", cap(*b), want)
			}
		}
	}
	long := goldenMeet
	long.Projected = &ncq.Projection{XML: strings.Repeat("x", 2*flushBytes)}
	w := &brokenWriter{header: http.Header{}, room: -1}
	sw := NewStreamWriter(w, httptest.NewRequest("POST", "/v2/query?stream=1", nil), nil, nil, nil)
	sw.Meet(&Answer{CorpusMeet: goldenMeet})
	sw.Meet(&Answer{CorpusMeet: long})
	if cap(sw.buf) <= tailCap {
		t.Fatalf("a %d-byte line left the tail buffer at %d bytes", len(long.Projected.XML), cap(sw.buf))
	}
	sw.Close()
	pooled(&tailPool, tailCap)

	sc := NewLineScanner(strings.NewReader(`{"error":"` + strings.Repeat("y", 256<<10) + `"}` + "\n"))
	if ln, err := sc.Next(); err != nil || len(ln.Error) != 256<<10 {
		t.Fatalf("%v", err)
	}
	sc.Close()
	pooled(&scanPool, scanCap)
}

// canonicalMeet is the fast path's verdict on b: the meet it decoded,
// nil when it leaves b to the general path.
func canonicalMeet(b []byte) *ncq.CorpusMeet {
	m := new(ncq.CorpusMeet)
	if !decodeCanonicalMeet(b, m) {
		return nil
	}
	return m
}

// fuzzMeet builds a meet from fuzzer-friendly arguments: four bytes of
// wit per witness, nil rather than empty when noWit is set, projected
// text only when projected is.
func fuzzMeet(source, tag, path string, shard, distance int, node uint32, wit []byte, noWit bool, value, xml string, projected bool) ncq.CorpusMeet {
	m := ncq.CorpusMeet{Source: source, Shard: shard, Meet: ncq.Meet{
		Node: ncq.NodeID(node), Tag: tag, Path: path, Distance: distance}}
	if projected {
		m.Projected = &ncq.Projection{Value: value, XML: xml}
	}
	if !noWit {
		m.Witnesses = make([]ncq.NodeID, len(wit)/4)
		for i := range m.Witnesses {
			m.Witnesses[i] = ncq.NodeID(binary.LittleEndian.Uint32(wit[4*i:]))
		}
	}
	return m
}

// FuzzAppendMeetLine holds the encoder to its reference: for any meet
// AppendMeetLine writes the bytes json.Marshal writes. It also closes
// the loop with the decoder: a line whose strings needed no escaping is
// one the canonical fast path takes, any other line is one it leaves
// alone, and either way decode gives back the meet that was encoded.
func FuzzAppendMeetLine(f *testing.F) {
	f.Add("bib", "book", "/bib/book", 2, 2, uint32(4), []byte{5, 0, 0, 0, 9, 0, 0, 0}, false, "", "", false)
	f.Add("a<b>&c", "t", "/t", 0, 0, uint32(0), []byte(nil), true, "", "", true)
	f.Add("", "", "", -3, -1, uint32(1<<32-1), []byte{1, 2, 3}, false, "How to Hack", "", true)
	f.Add("q\"uo\\te", "  �", "/\x00\x01\b\f\n\r\t\x1f\x7f", 1, 1<<40, uint32(7), bytes.Repeat([]byte{0xff}, 400), false, "", "<year>1999</year>", true)
	f.Add("café \xff\xc0\xaf \xe2\x80", "\xf0\x9f\x98\x80", "/\xed\xa0\x80", 1<<31, -1<<40, uint32(9), []byte{0, 0, 0, 0}, false, "R&D \u2028 \xff", "<a b=\"c\">&amp;</a>", true)
	f.Add("bib", "title", "/bib/title", 0, 0, uint32(3), []byte(nil), true, "plain value", "plain xml", true)
	f.Fuzz(func(t *testing.T, source, tag, path string, shard, distance int, node uint32, wit []byte, noWit bool, value, xml string, projected bool) {
		m := fuzzMeet(source, tag, path, shard, distance, node, wit, noWit, value, xml, projected)
		ref, err := json.Marshal(meetLine{Meet: &m})
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, '\n')
		got := AppendMeetLine([]byte("kept"), &m)
		if !bytes.Equal(got, append([]byte("kept"), ref...)) {
			t.Fatalf("AppendMeetLine wrote\n%q, json.Marshal\n%q", got[4:], ref)
		}

		plain := path != ""
		texts := []string{source, tag, path}
		if projected {
			texts = append(texts, value, xml)
		}
		for _, s := range texts {
			for i := 0; i < len(s); i++ {
				plain = plain && plainByte[s[i]]
			}
		}
		line := ref[:len(ref)-1]
		fast := canonicalMeet(line)
		if plain != (fast != nil) {
			t.Fatalf("plain strings: %t, but the fast path decoded %q to %+v", plain, line, fast)
		}
		if path == "" {
			return // not a line
		}
		for _, s := range texts {
			if !utf8.ValidString(s) {
				return // not the same strings once U+FFFD stands in
			}
		}
		var back Line
		if err := back.decode(line); err != nil || back.Kind() != "meet" || !reflect.DeepEqual(back.Meet, &m) {
			t.Fatalf("%q decoded to %+v (%v), encoded from %+v", line, back.Meet, err, m)
		}
	})
}

// canonicalLines are taken by the fast path; nonCanonicalLines — other
// spellings of a meet, numbers strconv would not write or the field
// cannot hold, strings that need or carry an escape, other records —
// are left to the general one, whatever it then says about them.
var (
	canonicalLines = []string{
		`{"meet":{"source":"bib","shard":2,"node":4,"tag":"book","path":"/bib/book","witnesses":[5,9],"distance":2}}`,
		`{"meet":{"source":"s","node":0,"tag":"","path":"/p","witnesses":null,"distance":-7}}`,
		`{"meet":{"source":"s ` + "\x7f" + `","shard":-1,"node":4294967295,"tag":"t","path":"/p","witnesses":[],"distance":1099511627776}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"value":"How to Hack"}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"xml":"1999"}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2,"projected":{"value":"v","xml":"x"}}}`,
	}
	nonCanonicalLines = []string{
		`{"meet":{"source":"s","node":04,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[05],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":-0}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5,],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5 ,9],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"node":5,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2,"distance":3}}`,
		`{"meet":{"source":"s","node":4294967296,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[4294967296],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":9223372036854775808}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":99999999999999999999}}`,
		`{"meet":{"source":"s","shard":0,"node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2}} x`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2},"trailer":true}`,
		`{"meet":{"source":"a<b","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"a\u003cb","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"café","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2e0}}`,
		`{"meet": {"source":"s","node":4,"tag":"t","path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"tag":"t","source":"s","node":4,"path":"/p","witnesses":[5],"distance":2}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"value":""}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"value":"v","xml":""}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"xml":"x","value":"v"}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"value":"v",}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"value":"v"},"projected":{}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":null}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"xml":"\u003cyear\u003e1999\u003c/year\u003e"}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"value":"R\u0026D \u2028"}}}`,
		`{"meet":{"source":"s","node":4,"tag":"t","path":"/p","witnesses":null,"distance":0,"projected":{"value":"a<b"}}}`,
		`{"header":true,"node":"w1","generation":7,"total":3,"unmatched":1}`,
		`{"trailer":true,"unmatched":0,"took_ms":0}`,
	}
)

// TestDecodeCanonicalMeet states the fast path's verdict on each seed
// of its fuzzer.
func TestDecodeCanonicalMeet(t *testing.T) {
	for _, s := range canonicalLines {
		if canonicalMeet([]byte(s)) == nil {
			t.Errorf("left to the general path: %s", s)
		}
	}
	for _, s := range append(nonCanonicalLines, rejectedLines...) {
		if m := canonicalMeet([]byte(s)); m != nil {
			t.Errorf("%s: taken by the fast path as %+v", s, m)
		}
	}
}

// relayKey is the key-only scan's verdict on b, as LineScanner.Relay
// reads it: the rank key, nil when the scan leaves b to the general
// path.
func relayKey(b []byte) *ncq.CorpusMeet {
	m := new(ncq.CorpusMeet)
	source, ok := parseCanonicalMeet(b, m, false)
	if !ok {
		return nil
	}
	m.Source = string(source)
	return m
}

// FuzzDecodeCanonicalParity holds the fast decoder inside the general
// one: whatever bytes it accepts, the general path — reached here by
// a leading space, which JSON ignores and the fast path does not —
// accepts too and decodes to the same line, and they are to the byte
// what AppendMeetLine writes for that meet, so the fast path's only
// inputs are lines whose validity was decided by the encoder. The
// relay's key-only scan of the same grammar accepts exactly the lines
// the full decode accepts, and reads the same rank key from them.
func FuzzDecodeCanonicalParity(f *testing.F) {
	for _, s := range append(canonicalLines, nonCanonicalLines...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, key := canonicalMeet(data), relayKey(data)
		if (m == nil) != (key == nil) {
			t.Fatalf("%q: full decode %+v, key-only scan %+v", data, m, key)
		}
		if m == nil {
			return
		}
		if want := (ncq.CorpusMeet{Source: m.Source, Shard: m.Shard, Meet: ncq.Meet{Node: m.Node, Distance: m.Distance}}); !reflect.DeepEqual(*key, want) {
			t.Fatalf("%q: key-only scan read %+v, the full decode %+v", data, key, m)
		}
		spaced := append([]byte(" "), data...)
		if canonicalMeet(spaced) != nil {
			t.Fatalf("the fast path took %q: no reference left", spaced)
		}
		var ref Line
		if err := ref.decode(spaced); err != nil {
			t.Fatalf("the fast path accepts %q, the general path says %v", data, err)
		}
		if ref.Kind() != "meet" || !reflect.DeepEqual(ref.Meet, m) {
			t.Fatalf("%q: fast path %+v, general path %+v", data, m, ref.Meet)
		}
		if again := AppendMeetLine(nil, m); !bytes.Equal(again[:len(again)-1], data) {
			t.Fatalf("the fast path accepts %q, which is not canonical: %q", data, again)
		}
	})
}

// BenchmarkMeetLine is the per-line cost of the protocol's two ends.
func BenchmarkMeetLine(b *testing.B) {
	line := AppendMeetLine(nil, &goldenMeet)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf = AppendMeetLine(buf[:0], &goldenMeet)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var ln Line
		for i := 0; i < b.N; i++ {
			if err := ln.decode(line[:len(line)-1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
