package ncq

// This file defines the unified execution API: one Request/Result pair
// understood by every query surface — the library's Database and
// Corpus, the ncqd HTTP server, and the CLIs. The paper's
// promise is "the power of querying with the simplicity of searching";
// one request shape with context cancellation, pushed-down limits and
// cursor pagination keeps the simplicity as the system scales. A
// query-language request differs from a term request only in where the
// meet's input sets come from (internal/query lowers the FROM and
// WHERE clauses; the full-text index locates terms) — one executor
// ranks, pages and streams both.

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ErrBadCursor is returned (wrapped) by Run when Request.Cursor is not
// a cursor produced by a previous Result, or belongs to a different
// request.
var ErrBadCursor = errors.New("invalid cursor")

// ErrStaleCursor is returned (wrapped) by corpus runs when
// Request.Cursor was minted against an earlier corpus generation: a
// mutation between pages re-ranks the answer set, so resuming the old
// position would silently repeat or skip answers. Re-issue the request
// without a cursor to start a fresh ranking. The ncqd v2 endpoint maps
// it to HTTP 410 Gone. Database cursors never go stale (a loaded
// document is immutable).
var ErrStaleCursor = errors.New("stale cursor")

// Request is one nearest-concept query addressed to any Querier.
// Exactly one of Terms (a raw term meet) or Query (the paper's SQL
// variant) must be set. The zero values of the remaining fields are
// always valid: no document restriction, no options, no limit, first
// page. The JSON names are the POST /v2/query body's: that body is a
// Request plus its Options' OptionSpec.
type Request struct {
	// Doc restricts a corpus run to the named member (resolved
	// logically: a sharded member fans out over its shards). Empty
	// means the whole corpus. A Database holds a single anonymous
	// document, so Doc must be empty when running against one.
	Doc string `json:"doc,omitempty"`

	// Terms holds one full-text term per input set; the result is the
	// meet of all hits (substring semantics, as Database.Locate finds
	// them).
	Terms []string `json:"terms,omitempty"`

	// Query is a query in the paper's SQL variant, e.g.
	// "SELECT meet(e1, e2) FROM //cdata AS e1, ...". A meet(...) item
	// answers with its nearest concepts; a projection answers with one
	// distance-0 meet per selected node, VALUE(v) and XML(v) text under
	// Meet.Projected. Either way the answer is ranked like any other —
	// RANKED is accepted and is what every answer already is; document
	// order is Database.Query's.
	Query string `json:"query,omitempty"`

	// Options tunes the meet operator for term requests. It must set
	// nothing for query-language requests, which carry their options
	// in the meet(...) clause.
	Options *Options `json:"-"`

	// Limit caps the number of returned meets; 0 means unlimited. The
	// limit is pushed down into execution: the engine ranks and renders
	// only what the page needs instead of truncating a full answer set
	// afterwards.
	Limit int `json:"limit,omitempty"`

	// Cursor resumes a paginated run where a previous Result's
	// NextCursor left off. Cursors are opaque and bound to the request
	// that produced them: reusing one with different terms, options or
	// limit fails with ErrBadCursor. They also carry the corpus
	// generation they were minted at: presenting one after a corpus
	// mutation fails with ErrStaleCursor instead of silently cutting
	// the next page from a re-ranked answer set.
	Cursor string `json:"cursor,omitempty"`

	// Vague switches a term request into the vague-constraints mode:
	// restrict patterns match approximately within a structural-slack
	// budget and slack blends into the ranking distance (see Vague).
	// It must be nil for query-language requests. The zero spec is
	// equivalent — including cache keys and cursors — to exact mode.
	Vague *Vague `json:"vague,omitempty"`

	// AllowPartial lets an executor scattered over other processes
	// answer from the members it could reach (StreamStats.Incomplete)
	// instead of failing. A Database or a Corpus ignores it — their
	// answers are never partial — and a complete answer is the same
	// either way, so it is no part of Canonical.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// Result is the answer to a Request, whatever surface executed it.
type Result struct {
	// Meets holds the ranked answer (ascending distance; ties by
	// source, shard, document order): the nearest concepts of a term
	// request or of a query-language meet(...), the selected nodes of a
	// query-language projection. Source and Shard are empty for a
	// Database run.
	Meets []CorpusMeet `json:"meets,omitempty"`

	// Unmatched counts the inputs that found no partner.
	Unmatched int `json:"unmatched,omitempty"`

	// UnmatchedNodes lists the unmatched inputs of a Database run.
	// Corpus runs report only the count: node IDs are local to a
	// member's shard and do not identify nodes on their own.
	UnmatchedNodes []NodeID `json:"unmatched_nodes,omitempty"`

	// Truncated reports that Limit cut the answer set; NextCursor then
	// resumes at the next page.
	Truncated  bool   `json:"truncated,omitempty"`
	NextCursor string `json:"next_cursor,omitempty"`

	// Elapsed is the execution wall time.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`

	// RelaxationsBySlack counts, for a vague term request, the candidate
	// answers that used each amount of structural slack (index = slack;
	// index 0 unused). Nil for exact requests. It is observability
	// metadata — the ncqd server feeds its relaxation histogram from it
	// — and deliberately stays off the wire.
	RelaxationsBySlack []int `json:"-"`
}

// Querier is the unified execution interface implemented by *Database
// and *Corpus: one entry point for every request shape, honouring
// context cancellation and deadlines.
//
// Results is the iterator-native surface: the ranked meets of a
// request as an incremental sequence, in the exact (distance, source,
// shard, node) total order of Run, flowing as soon as every fan-out
// member has produced its first answer. Breaking out of the range ends
// execution early (this is how Limit is pushed down); an execution or
// context error arrives as the sequence's final yield.
//
// Run drains the same sequence into one paginated Result.
type Querier interface {
	Run(ctx context.Context, req Request) (*Result, error)
	Results(ctx context.Context, req Request) iter.Seq2[CorpusMeet, error]
}

var (
	_ Querier = (*Database)(nil)
	_ Querier = (*Corpus)(nil)
)

// Validate checks r as every Querier checks it before running anything:
// exactly one of Terms or Query, no empty term, no term-only field on a
// query-language request, no negative Limit or bound, a Vague budget in
// range and option patterns that compile. A surface that ships a
// request to another process (internal/wire) calls it to refuse the
// request first. Query-language text is parsed only when the request
// runs.
func (r *Request) Validate() error {
	_, err := r.shape()
	return err
}

// shape validates r and compiles the path-shaping half of its options:
// nil for a query-language request or a term request without options.
func (r *Request) shape() (*pathShape, error) {
	hasQuery, hasTerms := r.Query != "", len(r.Terms) > 0
	switch {
	case hasQuery == hasTerms:
		return nil, errors.New("ncq: set exactly one of Terms or Query")
	case hasQuery && strings.TrimSpace(r.Query) == "":
		return nil, errors.New("ncq: blank Query")
	case slices.Contains(r.Terms, ""):
		return nil, errors.New("ncq: empty term")
	case hasQuery && r.Options.set():
		return nil, errors.New("ncq: Options apply to term requests; query-language requests carry options in meet(...)")
	case hasQuery && r.Vague != nil:
		return nil, errors.New("ncq: Vague applies to term requests only")
	case r.Limit < 0:
		return nil, errors.New("ncq: negative Limit")
	}
	if err := r.Vague.validate(); err != nil {
		return nil, err
	}
	if hasQuery {
		return nil, nil
	}
	return r.Options.shape(r.Vague)
}

// appendCanonical appends the options' deterministic rendering for
// cache keys and cursor fingerprints. Pattern order is irrelevant to
// the semantics (exclusion and restriction are unions), so patterns
// are sorted.
func (o *Options) appendCanonical(b []byte) []byte {
	if !o.set() {
		return append(b, '-')
	}
	s := &o.spec
	b = strconv.AppendBool(append(b, "xroot="...), s.ExcludeRoot)
	b = appendQuoted(append(b, " x="...), sortedOf(s.Exclude))
	b = appendQuoted(append(b, " r="...), sortedOf(s.Restrict))
	b = strconv.AppendBool(append(b, " near="...), s.Nearest)
	b = strconv.AppendInt(append(b, " w="...), int64(s.Within), 10)
	return strconv.AppendInt(append(b, " lift="...), int64(s.MaxLift), 10)
}

// sortedOf is ss sorted: ss itself when it already is.
func sortedOf(ss []string) []string {
	if slices.IsSorted(ss) {
		return ss
	}
	return slices.Sorted(slices.Values(ss))
}

// appendQuoted appends ss as fmt's %q spells a []string: each element
// quoted, separated by spaces, in brackets.
func appendQuoted(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendQuote(b, s)
	}
	return append(b, ']')
}

// appendCanonicalBase appends the canonical encoding of everything but
// the page position — the part a cursor is fingerprinted against.
func (r *Request) appendCanonicalBase(b []byte) []byte {
	// An inactive Vague spec contributes nothing: a vague request that
	// relaxes and expands nothing IS the exact request and must share
	// its cache entries and cursor fingerprints. The query text is keyed
	// "ql", not "query", so that no cursor minted while query-language
	// rows were paged in per-source order — offsets into another
	// sequence — fingerprints as this request's.
	b = strconv.AppendQuote(append(b, "doc="...), r.Doc)
	b = appendQuoted(append(b, " terms="...), r.Terms)
	ql := r.Query
	if ql != "" {
		ql = strings.Join(strings.Fields(ql), " ")
	}
	b = strconv.AppendQuote(append(b, " ql="...), ql)
	b = r.Options.appendCanonical(append(b, " opt="...))
	b = strconv.AppendInt(append(b, " lim="...), int64(r.Limit), 10)
	return r.Vague.appendCanonical(b)
}

// Canonical returns a deterministic encoding of the request:
// equivalent requests — modulo query whitespace, option-pattern order
// and cursor spelling — map to the same string. The ncqd server keys
// its result cache by (corpus generation, Canonical()), so equivalent
// spellings of a request share one cache entry. A cursor
// contributes its resume offset and the generation it was minted at,
// so a stale cursor can never splice into a fresh cursor's cache
// entry.
func (r *Request) Canonical() string {
	var buf [160]byte
	b := r.appendCanonicalBase(buf[:0])
	off, gen, err := r.Page()
	switch {
	case err != nil:
		// An undecodable cursor cannot execute; keep the key unique.
		b = strconv.AppendQuote(append(b, " cur="...), r.Cursor)
	case r.Cursor != "":
		b = strconv.AppendInt(append(b, " off="...), int64(off), 10)
		b = strconv.AppendUint(append(b, " cgen="...), gen, 10)
	default:
		b = append(b, " off=0"...)
	}
	return string(b)
}

// fingerprint binds cursors to the request that produced them: the
// FNV-32a hash of everything but the page position.
func (r *Request) fingerprint() uint32 {
	var buf [160]byte
	h := uint32(2166136261)
	for _, c := range r.appendCanonicalBase(buf[:0]) {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// encodeCursor renders a resume position as an opaque cursor, stamped
// with the corpus generation it was computed against (0 for Database
// runs, which cannot mutate): "v2 <offset> <fingerprint as 8 hex
// digits> <generation>", base64-encoded.
func encodeCursor(offset int, fp uint32, gen uint64) string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], "v2 "...), int64(offset), 10)
	b = append(b, ' ')
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[fp>>shift&0xf])
	}
	b = strconv.AppendUint(append(b, ' '), gen, 10)
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeCursor reverses encodeCursor, failing with ErrBadCursor on
// garbage or on a cursor whose fingerprint does not match fp.
func decodeCursor(cursor string, fp uint32) (offset int, gen uint64, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return 0, 0, fmt.Errorf("ncq: %w: %v", ErrBadCursor, err)
	}
	var got uint32
	if _, err := fmt.Sscanf(string(raw), "v2 %d %x %d", &offset, &got, &gen); err != nil || offset < 0 {
		return 0, 0, fmt.Errorf("ncq: %w", ErrBadCursor)
	}
	if got != fp {
		return 0, 0, fmt.Errorf("ncq: %w: cursor belongs to a different request", ErrBadCursor)
	}
	return offset, gen, nil
}

// Page decodes the request's cursor into a result offset plus the
// generation the cursor was minted at (both 0 when no cursor is set),
// failing with ErrBadCursor on garbage or on a cursor minted for a
// different request. Staleness — a minted generation that no longer
// matches the state the request runs against — is the executor's
// check: only it knows the current generation, be it a corpus counter
// or the hash of a cluster's generation vector (StreamStats.Fill
// stamps whichever the executor hands it).
func (r *Request) Page() (offset int, gen uint64, err error) {
	if r.Cursor == "" {
		return 0, 0, nil
	}
	return decodeCursor(r.Cursor, r.fingerprint())
}
