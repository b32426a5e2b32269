// Package wire is the one place that knows the POST /v2/query
// protocol: the request body around the library's own request schema,
// the response envelopes, the NDJSON stream records (stream.go) and the
// HTTP helpers around them. internal/server's front end produces the
// protocol for both roles, internal/cluster renders the bodies it
// scatters and consumes its workers' streams, cmd/ncq consumes it;
// none of them spells a protocol field itself, so a single node and a
// coordinator cannot drift apart. The body is one JSON object — one
// query inline, or many under "batch":
//
//	{"doc":"bib","terms":["Bit","1999"],"exclude_root":true,
//	 "limit":10,"cursor":"...","timeout_ms":250}
//	{"batch":[{...},{...}],"timeout_ms":500}
//
// Errors map to statuses uniformly (StatusOf): 404 for an unknown
// document, 400 for invalid input or a foreign cursor, 410 for a
// cursor minted before a mutation, 504 for an expired timeout_ms, and
// whatever a StatusError carries for the failures only one role has.
package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"ncq"
	"ncq/internal/admission"
	"ncq/internal/metrics"
)

const (
	MaxBody  = 8 << 20  // bytes of one JSON request body
	MaxBatch = 256      // queries per "batch"
	MaxLine  = 16 << 20 // bytes of one NDJSON line; meets can carry long witness lists
)

// Query is one query: the library's request, with its options as the
// plain spec, so every field of the body is a field of ncq.Request or of
// ncq.OptionSpec and is named, documented and validated there, never
// here.
type Query struct {
	ncq.Request
	ncq.OptionSpec
}

// Lower sets the request's Options from the spec, so that q.Request is
// what q spells, and validates it through the library: a failure is a
// 400 with the returned text, inline or as a batch item, refused by
// either role before anything runs or scatters. Execution errors
// (unknown document, bad cursor, unparsable query text) surface later
// with their own statuses.
func (q *Query) Lower() error {
	q.Request.Options = ncq.NewOptions(q.OptionSpec)
	if err := q.Request.Validate(); err != nil {
		return fmt.Errorf("invalid request: %w", err)
	}
	return nil
}

// QueryOf is the query that carries req: the body a coordinator's
// backend re-sends to its workers. Query-language text travels as it
// is; each worker parses it.
func QueryOf(req *ncq.Request) Query {
	return Query{Request: *req, OptionSpec: req.Options.Spec()}
}

// Body is the POST /v2/query body: one query inline, or many under
// "batch", plus an optional per-request deadline.
type Body struct {
	Query
	Batch     []Query `json:"batch,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// Decode reads and checks one request body. On failure it has written
// the error response and ok is false. On success the body is either a
// batch of 1..MaxBatch queries, each still to be lowered on its own (a
// bad item fails alone), or one inline query, lowered; ctx carries the
// timeout_ms deadline and cancel releases it.
func Decode(w http.ResponseWriter, r *http.Request) (body *Body, ctx context.Context, cancel context.CancelFunc, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBody))
	dec.DisallowUnknownFields()
	body = new(Body)
	if err := dec.Decode(body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge, "request exceeds the %d byte limit", tooLarge.Limit)
		} else {
			WriteError(w, http.StatusBadRequest, "decode request: %v", err)
		}
		return nil, nil, nil, false
	}
	if err := body.check(Flag(r, "stream")); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	ctx, cancel = r.Context(), func() {}
	if body.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
	}
	return body, ctx, cancel, true
}

func (b *Body) check(stream bool) error {
	switch {
	case b.TimeoutMS < 0:
		return errors.New("\"timeout_ms\" must be non-negative")
	case len(b.Batch) == 0:
		return b.Lower()
	case stream:
		return errors.New("\"batch\" cannot stream; issue one streaming query at a time")
	case !reflect.DeepEqual(b.Query, Query{}):
		// The zero-value comparison keeps this exhaustive as fields
		// are added.
		return errors.New("set either the inline query fields or \"batch\", not both")
	case len(b.Batch) > MaxBatch:
		return fmt.Errorf("batch of %d queries exceeds the limit of %d", len(b.Batch), MaxBatch)
	}
	return nil
}

// Response is the single-query envelope. Generation is the corpus
// generation on a node and the hash of the gathered worker generation
// vector on a coordinator — the value the response's cursors are
// stamped with. Incomplete and WorkerErrors are set by a coordinator
// answering an allow_partial query some worker failed.
type Response struct {
	Cached       bool              `json:"cached"`
	Generation   uint64            `json:"generation"`
	TookMS       float64           `json:"took_ms"`
	Truncated    bool              `json:"truncated,omitempty"`
	NextCursor   string            `json:"next_cursor,omitempty"`
	Incomplete   bool              `json:"incomplete,omitempty"`
	WorkerErrors map[string]string `json:"worker_errors,omitempty"`
	Result       json.RawMessage   `json:"result"`
}

// BatchItem is the outcome of one query of a batch. Status is the HTTP
// status the query would have received on its own, so a missing
// document (404) is distinguishable from an invalid query (400).
type BatchItem struct {
	Status       int               `json:"status"`
	Cached       bool              `json:"cached,omitempty"`
	Error        string            `json:"error,omitempty"`
	Truncated    bool              `json:"truncated,omitempty"`
	NextCursor   string            `json:"next_cursor,omitempty"`
	Incomplete   bool              `json:"incomplete,omitempty"`
	WorkerErrors map[string]string `json:"worker_errors,omitempty"`
	Result       json.RawMessage   `json:"result,omitempty"`
}

// Item is the response as one entry of a batch.
func (r *Response) Item() BatchItem {
	return BatchItem{Status: http.StatusOK, Cached: r.Cached, Truncated: r.Truncated, NextCursor: r.NextCursor,
		Incomplete: r.Incomplete, WorkerErrors: r.WorkerErrors, Result: r.Result}
}

// BatchResponse is the batch envelope; results are in request order.
type BatchResponse struct {
	Generation uint64      `json:"generation"`
	TookMS     float64     `json:"took_ms"`
	Results    []BatchItem `json:"results"`
}

// Result is the payload under "result": everything derived from the
// corpus state, nothing request- or connection-bound, so it is encoded
// once (EncodeResult) and the bytes are cached and spliced into
// envelopes verbatim. The type is what a client decodes it into.
type Result struct {
	Mode      string           `json:"mode"` // "terms" or "query": which field of the body asked
	Meets     []ncq.CorpusMeet `json:"meets,omitempty"`
	Unmatched int              `json:"unmatched,omitempty"` // single doc only
	Truncated bool             `json:"truncated,omitempty"` // a Limit cut results
}

// Doc is one document as the docs routes describe it: a PUT's reply,
// a GET of the document, one entry of a GET /v1/docs listing. Stats
// aggregate over all shards of a sharded document. Worker is set only
// in a coordinator's listing, naming the worker that holds it.
type Doc struct {
	Name   string    `json:"name"`
	Shards int       `json:"shards"`
	Stats  ncq.Stats `json:"stats"`
	Worker string    `json:"worker,omitempty"`
}

// errorBody is the error envelope, and the NDJSON error record.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON renders v with status code; an encoding error at this
// point can only be a connection failure, which the caller cannot act
// on.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError renders the {"error": ...} envelope.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// ReadError extracts the message of an error envelope, falling back to
// the raw body.
func ReadError(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	var e errorBody
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// StatusError is an execution failure that carries its own HTTP
// status: the ones only one role can have and the shared table below
// therefore cannot know — a worker's 4xx relayed by a coordinator with
// the worker's Retry-After hint, a worker that failed (502).
type StatusError struct {
	Status     int
	RetryAfter string // relayed in the Retry-After header when set
	Err        error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// StatusOf maps an execution failure to its HTTP status. The failures
// every role shares come first: an unregistered document is 404, a
// cursor from another request 400, a cursor minted before a mutation
// 410 Gone (the page it pointed into no longer exists), an expired
// deadline 504, a client that went away 499 (the de-facto "client
// closed request" code). Then a StatusError's own status. Everything
// else is input-driven (unparsable queries, bad path patterns) and
// therefore 400.
func StatusOf(err error) int {
	var se *StatusError
	switch {
	case errors.Is(err, ncq.ErrUnknownDoc):
		return http.StatusNotFound
	case errors.Is(err, ncq.ErrBadCursor):
		return http.StatusBadRequest
	case errors.Is(err, ncq.ErrStaleCursor):
		return http.StatusGone
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.As(err, &se):
		return se.Status
	default:
		return http.StatusBadRequest
	}
}

// WriteFailure renders an execution failure as the error envelope under
// status (StatusOf's, from a handler), relaying the Retry-After hint of
// a failure that carries one: a shed worker's 429 backpressure must
// reach the client intact.
func WriteFailure(w http.ResponseWriter, status int, err error) {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter != "" {
		w.Header().Set("Retry-After", se.RetryAfter)
	}
	WriteError(w, status, "%v", err)
}

// MsSince is the took_ms of a request that started at start.
func MsSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// Flag reads a boolean URL parameter: ?stream=1 selects the NDJSON
// form, ?header=1 its coordinator-facing variant opening with a Header.
func Flag(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// Admit gates a query route behind the admission limiter. A saturated
// limiter answers 429 with a Retry-After hint before any body decoding
// or execution happens — shedding in microseconds is what keeps the
// admitted requests fast. The slot is held until the handler returns,
// which for NDJSON streams means the whole life of the stream: a slow
// streaming consumer occupies capacity, it does not hide from it.
func Admit(l *admission.Limiter, inflight *metrics.Gauge, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := l.Acquire(r.Context())
		if err != nil {
			if errors.Is(err, admission.ErrSaturated) {
				w.Header().Set("Retry-After", strconv.Itoa(l.RetryAfterSeconds()))
				WriteError(w, http.StatusTooManyRequests,
					"server saturated; retry after %d second(s)", l.RetryAfterSeconds())
				return
			}
			WriteError(w, 499, "client closed request while queued for admission")
			return
		}
		defer release()
		inflight.Inc()
		defer inflight.Dec()
		next.ServeHTTP(w, r)
	})
}
