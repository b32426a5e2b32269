package wire

// POST /v2/query?stream=1 — the incremental form. Instead of one JSON
// envelope computed in full before the first byte leaves the handler,
// the response is NDJSON (application/x-ndjson): one meet per line in
// the global (distance, source, shard, node) rank, each line flushed
// as it is produced, then one trailer line with the stream counters:
//
//	{"meet":{"source":"bib","node":4,"tag":"book","distance":2,...}}
//	{"meet":{...}}
//	{"trailer":true,"unmatched":1,"truncated":true,"next_cursor":"...","took_ms":1.7}
//
// Only term requests stream (a query-language answer's unit is a
// per-source row set, not a meet) and "batch" cannot stream. Errors
// before the first line use the ordinary error envelope and status; an
// error after bytes have left — a mid-stream cancellation or deadline
// — is reported as a final {"error": ...} line, since the status line
// is long gone. Streams bypass the result cache: the value of the
// endpoint is the incremental production, which splicing cached bytes
// would fake but not deliver.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ncq"
	"ncq/internal/metrics"
)

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

type meetLine struct {
	Meet *ncq.CorpusMeet `json:"meet"`
}

// StreamWriter produces one NDJSON response. Nothing is written until
// the first Meet or the Trailer, so a failure before that still gets a
// proper status line through Fail.
type StreamWriter struct {
	w            http.ResponseWriter
	flusher      http.Flusher
	header       func() Header
	lines, bytes *metrics.Counter // nil on a role that does not count
	started      bool
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

// line writes and flushes one record; false means the client is gone.
func (s *StreamWriter) line(v any) bool {
	line, err := json.Marshal(v)
	if err != nil {
		return false
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return false
	}
	if s.lines != nil {
		s.lines.Inc()
		s.bytes.Add(int64(len(line)) + 1)
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return true
}

func (s *StreamWriter) start() {
	if s.started {
		return
	}
	s.w.Header().Set("Content-Type", "application/x-ndjson")
	s.w.Header().Set("X-NCQ-Cache", "bypass")
	s.w.WriteHeader(http.StatusOK)
	s.started = true
	if s.header != nil {
		h := s.header()
		h.Header = true
		s.line(h)
	}
}

// Meet writes one meet line; false means the client went away and
// execution should stop.
func (s *StreamWriter) Meet(m *ncq.CorpusMeet) bool {
	s.start()
	return s.line(meetLine{Meet: m})
}

// Trailer closes the stream.
func (s *StreamWriter) Trailer(t Trailer) {
	s.start()
	t.Trailer = true
	s.line(t)
}

// Fail reports err: as an error envelope with status while nothing has
// been written, as a final error line afterwards.
func (s *StreamWriter) Fail(status int, err error) {
	if !s.started {
		WriteError(s.w, status, "%v", err)
		return
	}
	s.line(errorBody{Error: err.Error()})
}

// Line is the decode union of the four NDJSON records; a decoded Line
// holds exactly one of them.
type Line struct {
	Header     bool   `json:"header"`
	Node       string `json:"node"`
	Generation uint64 `json:"generation"`
	Total      int    `json:"total"`

	Meet *ncq.CorpusMeet `json:"meet"`

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
// key twice. LineScanner bounds the line's size.
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
	sc   *bufio.Scanner
	line Line
}

// NewLineScanner scans r with a buffer that grows from 64 KiB up to
// MaxLine.
func NewLineScanner(r io.Reader) *LineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxLine)
	return &LineScanner{sc: sc}
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
