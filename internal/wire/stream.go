package wire

// POST /v2/query?stream=1 — the incremental form. Instead of one JSON
// envelope computed in full before the first byte leaves the handler,
// the response is NDJSON (application/x-ndjson): one meet per line in
// the global (distance, source, shard, node) rank, then one trailer
// line with the stream counters:
//
//	{"meet":{"source":"bib","node":4,"tag":"book","distance":2,...}}
//	{"meet":{...}}
//	{"trailer":true,"unmatched":1,"truncated":true,"next_cursor":"...","took_ms":1.7}
//
// A term request and a query-language one stream alike; "batch"
// cannot stream. Errors
// before the first line use the ordinary error envelope and status; an
// error after bytes have left — a mid-stream cancellation or deadline
// — is reported as a final {"error": ...} line, since the status line
// is long gone. Streams bypass the result cache: the value of the
// endpoint is the incremental production, which splicing cached bytes
// would fake but not deliver.
//
// Delivery: the head of the answer is latency, the tail throughput.
// Every line up to and including the first meet is flushed on its own
// as it is written; later lines are coalesced and flushed when
// flushBytes have accumulated, at the trailer or error line, and no
// later than flushDelay after the oldest of them was written — a
// producer that stalls does not hold back lines it already wrote.
//
// Meet lines, all but three of a stream, have their own grammar
// (internal/meetline, byte-identical to encoding/json). Its one strict
// reader, parseCanonicalMeet, only keys the relay: a coordinator checks
// a canonical line whole, reads its rank key and passes the line on.
// Everything else — every line a client keeps, every other record and
// every other spelling of a meet — is read with encoding/json.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ncq"
	"ncq/internal/meetline"
	"ncq/internal/metrics"
)

const (
	// flushBytes is how many bytes of tail lines accumulate before they
	// are flushed as one chunk.
	flushBytes = 16 << 10
	// flushDelay bounds how long a written line may wait for that.
	flushDelay = 2 * time.Millisecond
	tailCap    = flushBytes + flushBytes/16 // a tail buffer: the budget and the line crossing it
	scanCap    = 4 << 10                    // a scanner's buffer, grown up to MaxLine for a long line
)

// The buffers of closed streams, as *[]byte so a Put does not allocate.
var (
	tailPool = sync.Pool{New: func() any { b := make([]byte, 0, tailCap); return &b }}
	scanPool = sync.Pool{New: func() any { b := make([]byte, scanCap); return &b }}
)

func getBuffer(p *sync.Pool) *[]byte { return p.Get().(*[]byte) }

// Header opens a stream when the client asks for it (?header=1): the
// counters known before the first meet, the node's identity, and the
// generation the answers are computed against. A coordinator consumes
// it to size and staleness-check the global merge before any meet
// flows; plain clients that do not ask never see it.
type Header struct {
	Header     bool   `json:"header"`
	Node       string `json:"node"`
	Generation uint64 `json:"generation"`
	Total      int    `json:"total"`
	Unmatched  int    `json:"unmatched"`
}

// Trailer closes a stream: the counters a plain response carries in
// its envelope. Unlike Result, unmatched is reported for corpus-wide
// streams too (as a count over all members).
type Trailer struct {
	Trailer      bool              `json:"trailer"`
	Unmatched    int               `json:"unmatched"`
	Truncated    bool              `json:"truncated,omitempty"`
	NextCursor   string            `json:"next_cursor,omitempty"`
	Incomplete   bool              `json:"incomplete,omitempty"`
	WorkerErrors map[string]string `json:"worker_errors,omitempty"`
	TookMS       float64           `json:"took_ms"`
}

// StreamWriter produces one NDJSON response. Nothing is written until
// the first Meet or the Trailer, so a failure before that still gets a
// proper status line through Fail. The handler that made it must defer
// Close.
type StreamWriter struct {
	w            http.ResponseWriter
	flusher      http.Flusher
	header       func() Header
	lines, bytes *metrics.Counter // nil when nobody counts (tests)

	// mu guards the fields below and, once the stream has started,
	// every use of w: the delay timer flushes from its own goroutine.
	mu      sync.Mutex
	buf     []byte      // lines written but not yet handed to w
	pooled  *[]byte     // the tail buffer buf started in, back to tailPool on Close
	timer   *time.Timer // flushes buf flushDelay after it became non-empty
	started bool
	tail    bool // the first meet is out; later lines coalesce
	dead    bool // a write failed or Close ran: w is not touched again
}

// NewStreamWriter prepares the response to r on w. When r asks for it
// (?header=1), header is called once for the opening Header line, at
// the moment the stream starts — when the caller's counters are final.
// lines and bytes, when non-nil, count every line written and its
// bytes, newline included.
func NewStreamWriter(w http.ResponseWriter, r *http.Request, header func() Header, lines, nbytes *metrics.Counter) *StreamWriter {
	if !Flag(r, "header") {
		header = nil
	}
	flusher, _ := w.(http.Flusher)
	return &StreamWriter{w: w, flusher: flusher, header: header, lines: lines, bytes: nbytes}
}

// flush hands the buffered lines to the client. A failed write is
// sticky: the client is gone and nothing more is buffered for it.
func (s *StreamWriter) flush() {
	if s.dead || len(s.buf) == 0 {
		return
	}
	if _, err := s.w.Write(s.buf); err != nil {
		s.dead = true
	} else if s.flusher != nil {
		s.flusher.Flush()
	}
	s.buf = s.buf[:0]
}

// written accounts for the line that grew buf from length from and
// applies the flush policy; now forces the flush.
func (s *StreamWriter) written(from int, now bool) {
	if s.dead {
		s.buf = s.buf[:from]
		return
	}
	if s.lines != nil {
		s.lines.Inc()
		s.bytes.Add(int64(len(s.buf) - from))
	}
	switch {
	case now || len(s.buf) >= flushBytes:
		s.flush()
	case from > 0: // the timer is already running for an older line
	case s.timer == nil:
		s.timer = time.AfterFunc(flushDelay, s.flushLate)
	default:
		s.timer.Reset(flushDelay)
	}
}

// flushLate is the timer's flush: the producer wrote a line and then
// nothing for flushDelay.
func (s *StreamWriter) flushLate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
}

// record writes and flushes one of the few lines that are not meets.
func (s *StreamWriter) record(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	from := len(s.buf)
	s.buf = append(append(s.buf, line...), '\n')
	s.written(from, true)
}

func (s *StreamWriter) start() {
	if s.started {
		return
	}
	s.w.Header().Set("Content-Type", "application/x-ndjson")
	s.w.Header().Set("X-Ncq-Cache", "bypass") // X-NCQ-Cache, spelled canonically: Set allocates any other spelling
	s.w.WriteHeader(http.StatusOK)
	s.started = true
	if s.header != nil {
		h := s.header()
		h.Header = true
		s.record(h)
	}
}

// Meet writes a canonical meet line, newline included; false means the
// client went away and execution should stop.
func (s *StreamWriter) Meet(line []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return false
	}
	s.start()
	if s.tail && s.pooled == nil { // the head went out line by line; the tail fills budgets
		s.pooled = getBuffer(&tailPool)
		s.buf = append((*s.pooled)[:0], s.buf...)
	}
	from := len(s.buf)
	s.buf = append(s.buf, line...)
	s.written(from, !s.tail)
	s.tail = true
	return !s.dead
}

// Trailer closes the stream.
func (s *StreamWriter) Trailer(t Trailer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start()
	t.Trailer = true
	s.record(t)
}

// Fail reports err: as an error envelope with status while nothing has
// been written, as a final error line afterwards.
func (s *StreamWriter) Fail(status int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		WriteFailure(s.w, status, err)
		return
	}
	s.record(errorBody{Error: err.Error()})
}

// Close flushes what is still buffered and ends the writer's use of the
// ResponseWriter, which net/http forbids once the handler has returned:
// a timer flush already running is waited for, a later one finds the
// writer dead. The pooled tail buffer, not one a line outgrew, goes back.
func (s *StreamWriter) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush()
	s.dead = true
	if s.timer != nil {
		s.timer.Stop()
	}
	if s.pooled != nil {
		tailPool.Put(s.pooled)
	}
	s.buf, s.pooled = nil, nil
}

// AppendMeetLine appends m's stream line, newline included, to dst:
// the bytes json.Marshal gives for {"meet": m}.
func AppendMeetLine(dst []byte, m *ncq.CorpusMeet) []byte {
	dst = strconv.AppendUint(meetline.AppendHead(dst, m.Source, m.Shard), uint64(m.Node), 10)
	dst = meetline.AppendInfix(dst, m.Tag, m.Path)
	var value, xml string
	if p := m.Projected; p != nil {
		value, xml = p.Value, p.XML
	}
	return meetline.AppendTail(dst, m.Witnesses, m.Distance, m.Projected != nil, value, xml)
}

// Line is the decode union of the four NDJSON records; a decoded Line
// holds exactly one of them.
type Line struct {
	Header     bool   `json:"header"`
	Node       string `json:"node"`
	Generation uint64 `json:"generation"`
	Total      int    `json:"total"`

	// Meet points, for a line Relay keyed, at storage the Line owns and
	// its next read overwrites.
	Meet *ncq.CorpusMeet `json:"meet"`
	meet ncq.CorpusMeet

	Trailer      bool              `json:"trailer"`
	Unmatched    int               `json:"unmatched"` // header and trailer
	Truncated    bool              `json:"truncated"`
	NextCursor   string            `json:"next_cursor"`
	Incomplete   bool              `json:"incomplete"`
	WorkerErrors map[string]string `json:"worker_errors"`
	TookMS       float64           `json:"took_ms"`

	Error string `json:"error"`
}

// Kind names the record: "meet", "header", "trailer" or "error".
func (ln *Line) Kind() string {
	switch {
	case ln.Meet != nil:
		return "meet"
	case ln.Header:
		return "header"
	case ln.Trailer:
		return "trailer"
	default:
		return "error"
	}
}

// decode reads one NDJSON line into ln. The stream is a trust boundary
// (a coordinator reads it from workers, the CLI from a server), so
// anything that is not exactly one well-formed record is an error
// rather than a zero-valued meet: malformed input, a line naming no
// record or several, a meet without a path, and an object spelling a
// key twice. LineScanner bounds the line's size. This is what defines
// a valid line; the relay's strict reader accepts nothing it rejects.
func (ln *Line) decode(b []byte) error {
	*ln = Line{}
	if err := json.Unmarshal(b, ln); err != nil {
		return err
	}
	records := 0
	for _, present := range [...]bool{ln.Meet != nil, ln.Header, ln.Trailer, ln.Error != ""} {
		if present {
			records++
		}
	}
	if records != 1 || (ln.Meet != nil && ln.Meet.Path == "") {
		return fmt.Errorf("unexpected stream line %q", b[:min(len(b), 256)])
	}
	return uniqueKeys(b)
}

// canonical is a cursor over a line being matched against
// AppendMeetLine's output. The first mismatch sets bad, and stays.
type canonical struct {
	rest []byte
	bad  bool
}

// has consumes lit if the rest starts with it.
func (c *canonical) has(lit string) bool {
	if c.bad || len(c.rest) < len(lit) || string(c.rest[:len(lit)]) != lit {
		return false
	}
	c.rest = c.rest[len(lit):]
	return true
}

func (c *canonical) lit(lit string) {
	if !c.has(lit) {
		c.bad = true
	}
}

// text consumes a string literal holding plain bytes only — one that
// neither needed nor carries an escape — as a slice of the line.
func (c *canonical) text() []byte {
	c.lit(`"`)
	i := 0
	for i < len(c.rest) && meetline.Plain[c.rest[i]] {
		i++
	}
	if c.bad || i == len(c.rest) || c.rest[i] != '"' {
		c.bad = true
		return nil
	}
	s := c.rest[:i]
	c.rest = c.rest[i+1:]
	return s
}

// number consumes a decimal number of at most max the way strconv
// writes one: digits only, no leading zero.
func (c *canonical) number(max uint64) uint64 {
	i, v := 0, uint64(0)
	for i < len(c.rest) && i < 19 && c.rest[i]-'0' <= 9 { // 19 digits cannot overflow
		v = v*10 + uint64(c.rest[i]-'0')
		i++
	}
	if i == 0 || (i > 1 && c.rest[0] == '0') || v > max || (i < len(c.rest) && c.rest[i]-'0' <= 9) {
		c.bad = true
		return 0
	}
	c.rest = c.rest[i:]
	return v
}

// integer is number with strconv's sign: "-" before a non-zero value.
func (c *canonical) integer() int {
	neg := c.has("-")
	v := int(c.number(math.MaxInt))
	if !neg {
		return v
	}
	if v == 0 {
		c.bad = true
	}
	return -v
}

// parseCanonicalMeet is the one strict reader of the meet-line grammar:
// it accepts b only if it is, to the byte, a line AppendMeetLine writes
// (less the newline) for a meet with a path whose strings needed no
// escaping, and reports false for anything else — another record,
// another spelling, an escape or a byte outside ASCII, a number out of
// range — which is not a verdict: decode decides. Of an accepted line
// it reads only the rank key, into m.Shard, m.Node and m.Distance and
// the returned source, a slice of b; it allocates nothing.
func parseCanonicalMeet(b []byte, m *ncq.CorpusMeet) (source []byte, ok bool) {
	c := canonical{rest: b}
	if !c.has(`{"meet":{"source":`) {
		return nil, false
	}
	source = c.text()
	if c.has(`,"shard":`) {
		if m.Shard = c.integer(); m.Shard == 0 {
			return nil, false // omitted, not spelled, at zero
		}
	}
	c.lit(`,"node":`)
	m.Node = ncq.NodeID(c.number(math.MaxUint32))
	c.lit(`,"tag":`)
	c.text()
	c.lit(`,"path":`)
	path := c.text()
	c.lit(`,"witnesses":`)
	if !c.has("null") {
		c.lit("[")
		for n := 0; !c.has("]"); n++ {
			if n > 0 {
				c.lit(",")
			}
			if c.number(math.MaxUint32); c.bad {
				return nil, false
			}
		}
	}
	c.lit(`,"distance":`)
	m.Distance = c.integer()
	if c.has(`,"projected":{`) {
		// A text that is spelled is not empty: an empty one is omitted.
		xmlKey := `"xml":`
		if c.has(`"value":`) {
			xmlKey = `,"xml":`
			c.bad = c.bad || len(c.text()) == 0
		}
		if c.has(xmlKey) {
			c.bad = c.bad || len(c.text()) == 0
		}
		c.lit("}")
	}
	c.lit("}}")
	return source, !c.bad && len(c.rest) == 0 && len(path) > 0
}

// uniqueKeys rejects a line in which one object spells a key twice:
// encoding/json would let the later value win or — for "meet" — merge
// both objects into a meet no producer sent. b is valid JSON. Keys are
// compared as spelled, folding case the way encoding/json matches
// field names; a top-level key spelled with an escape is rejected
// outright, since no producer emits one and it could alias a record
// name past the comparison.
func uniqueKeys(b []byte) error {
	keys := make([][]byte, 0, 16) // keys of the open objects, innermost last
	opened := make([]int, 0, 8)   // per open container: where its keys start, -1 for an array
	wantKey := false
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '{':
			opened = append(opened, len(keys))
			wantKey = true
		case '[':
			opened = append(opened, -1)
		case '}', ']':
			if at := opened[len(opened)-1]; at >= 0 {
				keys = keys[:at]
			}
			opened = opened[:len(opened)-1]
		case ',':
			wantKey = opened[len(opened)-1] >= 0
		case '"':
			end := i + 1
			for end < len(b) && b[end] != '"' {
				if b[end] == '\\' {
					end++
				}
				end++
			}
			if key := b[i+1 : end]; wantKey {
				wantKey = false
				if len(opened) == 1 && bytes.IndexByte(key, '\\') >= 0 {
					return fmt.Errorf("escaped key %q in stream line", key)
				}
				for _, k := range keys[opened[len(opened)-1]:] {
					if bytes.EqualFold(k, key) {
						return fmt.Errorf("duplicate key %q in stream line", key)
					}
				}
				keys = append(keys, key)
			}
			i = end
		}
	}
	return nil
}

// LineScanner reads an NDJSON stream record by record; every consumer
// of the protocol uses it, so all of them accept the same line sizes.
type LineScanner struct {
	sc      *bufio.Scanner
	pooled  *[]byte // the buffer sc started with, back to scanPool on Close
	line    Line
	sources map[string]string // relayed sources, the first 256 interned
}

// NewLineScanner scans r with a pooled buffer that grows from 4 KiB up
// to MaxLine.
func NewLineScanner(r io.Reader) *LineScanner {
	pooled := getBuffer(&scanPool)
	sc := bufio.NewScanner(r)
	sc.Buffer(*pooled, MaxLine)
	return &LineScanner{sc: sc, pooled: pooled, sources: make(map[string]string)}
}

// Close gives the buffer back: bufio.Scanner left it at its class if a
// long line made it grow. The scanner and its lines are not used after.
func (s *LineScanner) Close() {
	if s.pooled != nil {
		scanPool.Put(s.pooled)
		s.pooled = nil
	}
}

// Next decodes the next line. The returned Line is reused by the
// following call. At the end of the input the error is io.EOF; a
// stream that ends before its trailer was cut short.
func (s *LineScanner) Next() (*Line, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	if err := s.line.decode(s.sc.Bytes()); err != nil {
		return nil, fmt.Errorf("decode stream line: %w", err)
	}
	return &s.line, nil
}

// Relay is Next for a line passed on rather than kept: a canonical meet
// line is checked whole, but only its rank key is read into the Line's
// Meet, and raw is the line itself, valid until the following call.
// Any other line is decoded as Next decodes it, and raw is nil.
func (s *LineScanner) Relay() (ln *Line, raw []byte, err error) {
	if !s.sc.Scan() {
		ln, err = s.Next() // the same end or error
		return ln, nil, err
	}
	raw = s.sc.Bytes()
	s.line = Line{}
	if source, ok := parseCanonicalMeet(raw, &s.line.meet); ok {
		name, seen := s.sources[string(source)]
		if !seen {
			if name = string(source); len(s.sources) < 256 {
				s.sources[name] = name
			}
		}
		s.line.meet.Source, s.line.Meet = name, &s.line.meet
		return &s.line, raw, nil
	}
	if err := s.line.decode(raw); err != nil {
		return nil, nil, fmt.Errorf("decode stream line: %w", err)
	}
	return &s.line, nil, nil
}
