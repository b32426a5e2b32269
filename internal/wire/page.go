package wire

// A page is the stream drained. Its result is the meet objects of the
// NDJSON lines the backend yields, cut out of each {"meet":…}\n and
// joined under "meets", so a page and a stream of the same request
// carry the same bytes for every meet; its envelope is appended around
// the cached result bytes, which are copied as they are. Both spell
// exactly what encoding/json spelled for Result, Response and
// BatchResponse (TestGoldenBytes), without reflection and without
// re-compacting the result on every response.

import (
	"bytes"
	"encoding/json"
	"iter"
	"math"
	"net/http"
	"strconv"
	"sync"

	"ncq"
)

// maxPooledPage bounds the page and envelope buffers kept between
// requests: one that grew past it, for a page of thousands of meets,
// is dropped.
const maxPooledPage = 1 << 20

// page is a pooled buffer a page's result or envelope is appended
// into. add, bound once when the page is made, drains a line sequence
// into it without a closure per request.
type page struct {
	b   []byte
	n   int   // meets added
	err error // the sequence's failure
	add func(line []byte, err error) bool
}

var pagePool = sync.Pool{New: func() any {
	p := &page{b: make([]byte, 0, 2<<10)}
	p.add = p.addLine
	return p
}}

func getPage() *page { return pagePool.Get().(*page) }

// put hands p back emptied, unless its buffer outgrew maxPooledPage.
func (p *page) put() {
	if cap(p.b) <= maxPooledPage {
		p.b, p.n, p.err = p.b[:0], 0, nil
		pagePool.Put(p)
	}
}

// meetOpen is what a meet line spells before its meet's object; the
// line closes the object with "}\n".
const meetOpen = `{"meet":`

// addLine appends one meet line's object to the "meets" array.
func (p *page) addLine(line []byte, err error) bool {
	if err != nil {
		p.err = err
		return false
	}
	if p.n == 0 {
		p.b = append(p.b, `,"meets":[`...)
	} else {
		p.b = append(p.b, ',')
	}
	p.b = append(p.b, line[len(meetOpen):len(line)-2]...)
	p.n++
	return true
}

// EncodeResult drains lines — req's answer as its NDJSON meet lines,
// stats the counters they come with — into the bytes of its Result,
// built in a pooled buffer and returned as an exact-size copy: the
// mode, the meets, the unmatched count of a single-document request
// (corpus-wide node counts aggregate over members and are carried by
// the stream trailer alone) and the truncated flag.
func EncodeResult(req *ncq.Request, lines iter.Seq2[[]byte, error], stats *ncq.StreamStats) (json.RawMessage, error) {
	p := getPage()
	defer p.put()
	mode := `{"mode":"terms"`
	if req.Query != "" {
		mode = `{"mode":"query"`
	}
	p.b = append(p.b, mode...)
	if lines(p.add); p.err != nil {
		return nil, p.err
	}
	if p.n > 0 {
		p.b = append(p.b, ']')
	}
	if req.Doc != "" && stats.Unmatched != 0 {
		p.b = strconv.AppendInt(append(p.b, `,"unmatched":`...), int64(stats.Unmatched), 10)
	}
	if stats.Truncated {
		p.b = append(p.b, `,"truncated":true`...)
	}
	p.b = append(p.b, '}')
	out := make(json.RawMessage, len(p.b))
	copy(out, p.b)
	return out, nil
}

// WriteResponse renders the single-query envelope, mirroring Cached in
// the X-NCQ-Cache header: its fields and the result bytes, which must
// be set, copied as they are, appended into a pooled buffer and written
// at once.
func WriteResponse(w http.ResponseWriter, resp *Response) {
	disposition := "miss"
	if resp.Cached {
		disposition = "hit"
	}
	w.Header().Set("X-Ncq-Cache", disposition) // X-NCQ-Cache, spelled canonically: Set allocates any other spelling
	p := getPage()
	defer p.put()
	b := strconv.AppendBool(append(p.b, `{"cached":`...), resp.Cached)
	b = strconv.AppendUint(append(b, `,"generation":`...), resp.Generation, 10)
	b = appendFloat(append(b, `,"took_ms":`...), resp.TookMS)
	b = appendPage(b, resp.Truncated, resp.NextCursor, resp.Incomplete, resp.WorkerErrors)
	p.b = append(append(append(b, `,"result":`...), resp.Result...), "}\n"...)
	writeOK(w, p.b)
}

// WriteBatch renders the batch envelope the same way, every item's
// result copied as it is.
func WriteBatch(w http.ResponseWriter, resp *BatchResponse) {
	p := getPage()
	defer p.put()
	b := strconv.AppendUint(append(p.b, `{"generation":`...), resp.Generation, 10)
	b = appendFloat(append(b, `,"took_ms":`...), resp.TookMS)
	b = append(b, `,"results":[`...)
	for i := range resp.Results {
		it := &resp.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"status":`...), int64(it.Status), 10)
		if it.Cached {
			b = append(b, `,"cached":true`...)
		}
		if it.Error != "" {
			b = appendString(append(b, `,"error":`...), it.Error)
		}
		b = appendPage(b, it.Truncated, it.NextCursor, it.Incomplete, it.WorkerErrors)
		if len(it.Result) > 0 {
			b = append(append(b, `,"result":`...), it.Result...)
		}
		b = append(b, '}')
	}
	p.b = append(b, "]}\n"...)
	writeOK(w, p.b)
}

// writeOK writes body as an OK JSON response. A write error can only
// be a connection failure, which the caller cannot act on.
func writeOK(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// appendPage appends the page metadata an envelope and a batch item
// share, each field omitted at its zero value.
func appendPage(b []byte, truncated bool, next string, incomplete bool, workerErrors map[string]string) []byte {
	if truncated {
		b = append(b, `,"truncated":true`...)
	}
	if next != "" {
		b = appendString(append(b, `,"next_cursor":`...), next)
	}
	if incomplete {
		b = append(b, `,"incomplete":true`...)
	}
	if len(workerErrors) > 0 {
		b = appendMarshaled(append(b, `,"worker_errors":`...), workerErrors)
	}
	return b
}

// appendFloat appends f as encoding/json spells a float64: the
// shortest 'f' form, or 'e' outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded. f is finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a string literal the way WriteJSON's
// encoder spells it: a string of printable ASCII without a quote or a
// backslash as it is — a cursor always is — and any other through the
// encoder itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			return appendMarshaled(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendMarshaled appends v as WriteJSON's encoder spells it
// (SetEscapeHTML(false), map keys sorted), less the newline.
func appendMarshaled(b []byte, v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return append(b, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
}
