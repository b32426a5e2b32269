package ncq

// The iterator-native execution core. Every request — Run, Results,
// the NDJSON endpoint, the CLIs; raw terms or the query language —
// executes through one incremental pipeline:
//
//   1. termMeetsStream / queryMeetsStream: each member (a database, or
//      one shard of a sharded member) produces the meet's input sets —
//      located by the full-text index, or lowered from the query's FROM
//      and WHERE clauses — and computes its meet into columns it
//      borrows from a pool (memberBuf: core.Answers' rows and witness
//      arena, and the rank heap). It heapifies one 16-byte (distance,
//      node, seq) key per row by the local rank — O(n), against the
//      O(n log n) of a full sort — so its locally best meet is ready
//      the moment the roll-up finishes and the rest rank lazily, one
//      heap pop per pull. The public Meet (tag, path, a copy of the
//      row's witnesses) is rendered only for an answer that leaves the
//      member, so a top-10 page over hundreds of candidates allocates
//      ten-odd meets and nothing per candidate. The buffers go back to
//      the pool once the request's merge is done.
//   2. merger: a k-way heap merge over the per-member ranked streams.
//      Globally ordered meets flow as soon as every member has
//      produced its head, so the first answer reaches the caller
//      bounded by the slowest member's first result, not by its full
//      answer set and never by a global sort.
//
// The public entry point is Results (range-over-func); Run drains the
// same sequence and attaches the page metadata, and a pushed-down
// Limit is nothing more than the consumer stopping early.

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sync"

	"ncq/internal/core"
	"ncq/internal/fulltext"
	"ncq/internal/query"
)

// StreamStats carries the stream-level counters of a Results drain.
// The fields are populated once execution has fanned out — before the
// first yield — so a consumer may read them between yields (the NDJSON
// endpoint writes its trailer from them after the last meet).
type StreamStats struct {
	// Unmatched counts the inputs that found no partner, summed over
	// the members the request fanned out to.
	Unmatched int

	// UnmatchedNodes lists the unmatched inputs of a Database stream.
	// Corpus streams report only the count (node IDs are shard-local).
	UnmatchedNodes []NodeID

	// Total counts the full candidate answer set, before the cursor
	// offset and Limit cut it.
	Total int

	// Generation is the corpus generation the request's membership
	// snapshot was taken at (0 for a Database, which never mutates).
	// Worker nodes stamp their stream headers with it so a distributed
	// coordinator can detect cross-node skew between pages.
	Generation uint64

	// Truncated reports that Limit cuts the stream short; NextCursor
	// then resumes at the next page.
	Truncated  bool
	NextCursor string

	// RelaxationsBySlack counts, for a vague request, the answers that
	// used each amount of structural slack: index = slack, so index 0
	// is never used and len-1 = the request's max_slack. Nil for exact
	// requests. The counts cover the full candidate set (like Total),
	// not just the drained page.
	RelaxationsBySlack []int

	// Incomplete and WorkerErrors report a partial answer: an executor
	// scattered over other processes (internal/cluster's coordinator)
	// that lost some of them under Request.AllowPartial sets Incomplete,
	// names each failure by worker and clears NextCursor — a page chain
	// is always exact. A member can fail mid-answer, so unlike the
	// fields above these are final only once the sequence has ended.
	// Always zero for a Database or a Corpus.
	Incomplete   bool
	WorkerErrors map[string]string
}

// rankKey is what a member's heap orders: an answer's local rank
// (distance, node) and seq, its row in the member's document-order
// answer — the final tie-break that makes the lazy heap order
// reproduce a stable (distance, node) sort exactly, and the way back
// to the row to render when the key is popped. 16 bytes, so a sift
// moves two words where it used to move a whole Meet.
type rankKey struct {
	distance int
	node     NodeID
	seq      int32
}

func lessRanked(a, b *rankKey) bool {
	if a.distance != b.distance {
		return a.distance < b.distance
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.seq < b.seq
}

// memberStream is one member's ranked answer stream, the fan-out unit
// the k-way merge runs over. Two implementations exist: localStream
// (an in-process member whose meets live in a lazily-ranked heap) and
// sourceStream (an adapter over an external MeetSource — how
// internal/cluster's coordinator merges remote workers' NDJSON
// streams). next returns the member's next element in its local rank
// order plus a monotone per-member sequence number, the stable
// tie-break on full rank ties (which, with disjoint member coverage,
// can only occur within one stream); ok=false ends the stream and a
// non-nil error aborts the whole merge.
type memberStream[T any] interface {
	next() (m T, seq int32, ok bool, err error)
}

// localStream is the in-process memberStream: the rank keys of the
// member's rows live in a binary min-heap, so the first pull costs
// O(n) heapify and every later one O(log n) — a member drained only
// partially (an early Limit, an abandoned stream) never pays for
// ranking, or rendering, its tail.
type localStream struct {
	source string // logical member name; empty for a Database run
	shard  int32  // 1-based shard; 0 for plain members

	// projValue and projXML say which text a query-language projection
	// asked for; it is rendered, like the meet, on the way out. They sit
	// in shard's word: the struct fills its 96-byte allocation class,
	// and every request allocates one per member.
	projValue, projXML bool

	db        *Database
	buf       *memberBuf
	unmatched []NodeID

	// relaxBySlack counts the member's answers per structural slack
	// used (index = slack); nil for exact requests.
	relaxBySlack []int
}

// siftDown restores the min-heap property of h at index i under less;
// heapify establishes it over the whole slice in O(n). Both member
// streams and the k-way merge run on these.
func siftDown[T any](h []T, i int, less func(a, b *T) bool) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && less(&h[r], &h[child]) {
			child = r
		}
		if !less(&h[child], &h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

func heapify[T any](h []T, less func(a, b *T) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
}

// memberBuf is the pooled storage of one member's answer: the rows and
// witness arena the roll-up writes, and the rank heap over the rows.
// A stream borrows one and the request hands it back (release) once
// its merge is done; nothing a yielded meet holds points into it.
type memberBuf struct {
	core.Answers
	heap []rankKey
}

var memberBufPool = sync.Pool{New: func() any { return new(memberBuf) }}

func getMemberBuf() *memberBuf { return memberBufPool.Get().(*memberBuf) }

// putMemberBuf hands b back to the pool emptied, unless its rows
// outgrew what the pool keeps.
func putMemberBuf(b *memberBuf) {
	if cap(b.Rows) > core.MaxPooledRows {
		return
	}
	b.Rows, b.Wits, b.heap = b.Rows[:0], b.Wits[:0], b.heap[:0]
	memberBufPool.Put(b)
}

// newLocalStream heapifies the rank keys of buf's rows (in document
// order, as the roll-up emits them, distances already blended in vague
// mode) under the member-local rank. Nothing is rendered yet.
func newLocalStream(db *Database, buf *memberBuf, unmatched []NodeID) *localStream {
	h := buf.heap[:0]
	for i, r := range buf.Rows {
		h = append(h, rankKey{distance: int(r.Distance), node: r.Meet, seq: int32(i)})
	}
	heapify(h, lessRanked)
	buf.heap = h
	return &localStream{db: db, buf: buf, unmatched: unmatched}
}

func (s *localStream) pending() int { return len(s.buf.heap) }

// release returns the buffers of every local stream among streams,
// which are spent; a nil entry — a member that never got as far — is
// skipped.
func release(streams []memberStream[CorpusMeet]) {
	for _, ms := range streams {
		if s, ok := ms.(*localStream); ok {
			putMemberBuf(s.buf)
			s.buf = nil
		}
	}
}

// next implements memberStream: pop the heap's best key, render the
// row it stands for — with its own copy of the row's witnesses, nil
// for a row without any — and wrap it with the member's identity.
func (s *localStream) next() (CorpusMeet, int32, bool, error) {
	h := s.buf.heap
	if len(h) == 0 {
		return CorpusMeet{}, 0, false, nil
	}
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.buf.heap = h[:last]
	siftDown(s.buf.heap, 0, lessRanked)
	r := core.Result{Meet: top.node, Distance: top.distance}
	if ws := s.buf.Witnesses(int(top.seq)); len(ws) > 0 {
		r.Witnesses = slices.Clone(ws)
	}
	m := s.db.renderMeet(r)
	if s.projValue || s.projXML {
		m.Projected = &Projection{}
		if s.projValue {
			m.Projected.Value = s.db.engine.Value(m.Node)
		}
		if s.projXML {
			m.Projected.XML = s.db.engine.XML(m.Node)
		}
	}
	return CorpusMeet{Source: s.source, Shard: int(s.shard), Meet: m}, top.seq, true, nil
}

// termMeetsStream is a term request on one member: one full-text
// search per term, the multi-set meet, and the member's answers
// delivered as a lazily-ranked stream. The unmatched set and the total
// are known as soon as it returns; the ranking cost is paid per pull.
//
// sh is opt's path shape, compiled once for the whole request
// (Options.shape); the member reads its plan for sh from its memo. A
// non-nil vg runs the member in vague mode: restrict patterns admit
// paths approximately and structural slack blends into each answer's
// distance before the heap is built, so the blended score is the
// distance every later layer orders by. classes, when non-nil, holds
// each term's thesaurus expansion (see locate).
func (db *Database) termMeetsStream(ctx context.Context, terms []string, classes [][]string, opt *Options, sh *pathShape, vg *Vague) (*localStream, error) {
	copt, vp := opt.compile(db, sh, vg)
	sets, err := db.locate(ctx, terms, classes)
	if err != nil {
		return nil, err
	}
	return db.meetStream(ctx, sets, copt, vp)
}

// locate is the full-text half of a term request: one input set per
// term, the ascending owners of its substring matches through the
// index's memo. With classes non-nil, term i stands for the needles
// classes[i] — itself and its synonyms — and locates their union.
func (db *Database) locate(ctx context.Context, terms []string, classes [][]string) ([][]NodeID, error) {
	sets := make([][]NodeID, 0, len(terms))
	for i, t := range terms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if classes != nil {
			sets = append(sets, db.index.OwnersSubstringAny(classes[i]))
		} else {
			sets = append(sets, db.index.OwnersSubstring(t))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sets, nil
}

// expand broadens each term to the needles th names for it
// (fulltext.Thesaurus.Expand); nil, for locate's plain path, when th is.
func expand(th *fulltext.Thesaurus, terms []string) [][]string {
	if th == nil {
		return nil
	}
	classes := make([][]string, len(terms))
	for i, t := range terms {
		classes[i] = th.Expand(t)
	}
	return classes
}

// queryMeetsStream is termMeetsStream for a query-language request:
// the query's FROM and WHERE clauses, lowered against this member,
// stand where the located terms do. A meet(...) item rolls its input
// sets up like any other meet; a projection answers with its bound
// nodes as they are — distance 0, no witnesses — and has its text
// rendered when a node is yielded.
func (db *Database) queryMeetsStream(ctx context.Context, q *query.Query) (*localStream, error) {
	low, err := db.engine.Lower(ctx, q)
	if err != nil {
		return nil, err
	}
	if low.Opt != nil {
		return db.meetStream(ctx, low.Sets, low.Opt, vaguePlan{})
	}
	buf := getMemberBuf()
	for _, o := range low.Nodes {
		buf.Rows = append(buf.Rows, core.Row{Meet: o})
	}
	s := newLocalStream(db, buf, nil)
	s.projValue, s.projXML = q.Projects()
	return s, nil
}

// meetStream rolls the input sets up and ranks the answers lazily —
// the one meet execution of the pipeline, whoever produced the sets.
// vp is the zero vaguePlan unless the request is vague.
func (db *Database) meetStream(ctx context.Context, sets [][]NodeID, copt *core.Options, vp vaguePlan) (*localStream, error) {
	// The context threads into the roll-up itself (checked every 4,096
	// inputs), so a deadline interrupts one huge member mid-meet, not
	// just between members.
	buf := getMemberBuf()
	un, err := core.MeetInto(ctx, db.store, sets, copt, &buf.Answers)
	if err != nil {
		putMemberBuf(buf)
		return nil, fmt.Errorf("ncq: %w", err)
	}
	if vp.relaxBySlack != nil {
		// Blend before the rank heap exists, so the blended score IS the
		// order the heap, the k-way merge and the coordinator all see.
		vp.blend(buf.Rows)
	}
	s := newLocalStream(db, buf, un)
	s.relaxBySlack = vp.relaxBySlack
	return s, nil
}

// testStreamPull, when set, is invoked every time the merge pulls the
// next meet from a member's local stream to replace a consumed head;
// remaining is how many meets the member still holds before the pull.
// Tests use it to slow one member's drain and observe that globally
// ranked meets flow while that member's stream is still mid-flight.
var testStreamPull func(source string, shard, remaining int)

// head is one entry of the k-way merge: a member's current best
// element, and which of the merger's streams it came from.
type head[T any] struct {
	m   T
	seq int32
	src int32
}

// merger merges the per-member ranked streams into the global rank: a
// heap of member heads, refilled from the owning member as heads are
// consumed. Construction needs every member's head — the global
// minimum cannot be known sooner — which is exactly the "slowest
// member's first result" latency bound. key is the rank-key accessor.
type merger[T any] struct {
	streams []memberStream[T]
	heads   []head[T]
	key     func(*T) *CorpusMeet
}

func meetKey(m *CorpusMeet) *CorpusMeet { return m }

func newMerger[T any](streams []memberStream[T], key func(*T) *CorpusMeet) (*merger[T], error) {
	g := &merger[T]{streams: streams, heads: make([]head[T], 0, len(streams)), key: key}
	for i, s := range streams {
		m, seq, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if ok {
			g.heads = append(g.heads, head[T]{m: m, seq: seq, src: int32(i)})
		}
	}
	heapify(g.heads, g.less)
	return g, nil
}

// less orders merge heads by the global RankLess order of their keys,
// with the member-local emission index as the final tie-break — the
// exact total order RankLess + stable sort used to produce. Full
// RankLess ties can only occur within one member (each member owns a
// distinct (source, shard)), where seq decides.
func (g *merger[T]) less(a, b *head[T]) bool {
	ka, kb := g.key(&a.m), g.key(&b.m)
	if RankLess(ka, kb) {
		return true
	}
	if RankLess(kb, ka) {
		return false
	}
	return a.seq < b.seq
}

// next yields the globally next-ranked element, refilling the consumed
// head from its member's stream first. A member failing mid-refill —
// only possible for remote sources — aborts the merge with its error.
func (g *merger[T]) next() (T, bool, error) {
	if len(g.heads) == 0 {
		return *new(T), false, nil
	}
	out := g.heads[0].m
	src := g.heads[0].src
	s := g.streams[src]
	if hook := testStreamPull; hook != nil {
		if ls, ok := any(s).(*localStream); ok {
			hook(ls.source, int(ls.shard), ls.pending())
		}
	}
	m, seq, ok, err := s.next()
	if err != nil {
		return *new(T), false, err
	}
	if ok {
		g.heads[0] = head[T]{m: m, seq: seq, src: src}
	} else {
		last := len(g.heads) - 1
		g.heads[0] = g.heads[last]
		g.heads = g.heads[:last]
	}
	if len(g.heads) > 0 {
		siftDown(g.heads, 0, g.less)
	}
	return out, true, nil
}

// Fill publishes the counters known once a request has fanned out —
// the full candidate count, the unmatched inputs and the generation
// the answer is computed against — and mints the resume cursor of a
// page that req.Limit cuts at offset. Every executor, in process or
// scattered over a cluster, closes its fan-out with it, so a cursor is
// bound and stamped one way.
func (s *StreamStats) Fill(req *Request, offset int, gen uint64, total, unmatched int) {
	s.Total = total
	s.Unmatched = unmatched
	s.Generation = gen
	if req.Limit > 0 && total > offset+req.Limit {
		s.Truncated = true
		s.NextCursor = encodeCursor(offset+req.Limit, req.fingerprint(), gen)
	}
}

// drain runs the page window over the merged stream: skip offset
// elements, yield up to limit (0 = all), checking ctx between yields
// so a cancelled consumer stops mid-stream with the context's error. A
// member failing mid-merge surfaces as the final yield.
func drain[T any](ctx context.Context, g *merger[T], offset, limit int, yield func(T, error) bool) {
	for i := 0; i < offset; i++ {
		_, ok, err := g.next()
		if err != nil {
			yield(*new(T), err)
			return
		}
		if !ok {
			return
		}
	}
	for n := 0; limit <= 0 || n < limit; n++ {
		if err := ctx.Err(); err != nil {
			yield(*new(T), err)
			return
		}
		m, ok, err := g.next()
		if err != nil {
			yield(*new(T), err)
			return
		}
		if !ok {
			return
		}
		if !yield(m, nil) {
			return
		}
	}
}

// MeetSource is one independently ranked stream fed to MergeMeets:
// Next returns the source's next element in its own rank order — the
// global (distance, source, shard, node) order of its keys restricted
// to the members the source covers. ok=false ends the source; a
// non-nil error aborts the merged sequence with that error.
type MeetSource[T any] interface {
	Next() (m T, ok bool, err error)
}

// sourceStream adapts an exported MeetSource to the internal merge:
// the arrival index becomes the seq tie-break, preserving the source's
// own order on full rank ties.
type sourceStream[T any] struct {
	src MeetSource[T]
	seq int32
}

func (s *sourceStream[T]) next() (T, int32, bool, error) {
	m, ok, err := s.src.Next()
	if err != nil || !ok {
		return *new(T), 0, false, err
	}
	s.seq++
	return m, s.seq - 1, true, nil
}

// MergeMeets k-way merges independently ranked streams into one
// sequence in the exact global (distance, source, shard, node) total
// order of the meets key returns for their elements — the distribution
// primitive behind internal/cluster's coordinator: every worker node
// streams its members' answers in its own globally ranked order, and
// the merged sequence equals the single-node ranking as long as the
// sources cover disjoint (source, shard) sets. offset elements are
// skipped and limit > 0 ends the sequence early, exactly like one Run
// page.
//
// The first yield requires every source's head — the global minimum
// cannot be known sooner — so time to first result is bounded by the
// slowest source's first answer, never by any source's full drain. A
// source is asked for its next element before its last is yielded. A
// source error, or ctx expiring between yields, surfaces as the
// sequence's final yield. The sequence is single-use.
func MergeMeets[T any](ctx context.Context, sources []MeetSource[T], key func(*T) *CorpusMeet, offset, limit int) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		streams := make([]memberStream[T], len(sources))
		for i, src := range sources {
			streams[i] = &sourceStream[T]{src: src}
		}
		g, err := newMerger(streams, key)
		if err != nil {
			yield(*new(T), err)
			return
		}
		drain(ctx, g, offset, limit, yield)
	}
}

// target is what one request executes against: its fan-out units, the
// width they run at, the generation that identifies the captured
// membership — the mark minted cursors carry — and the thesaurus vague
// requests expand through, a frozen copy no caller can Add to.
type target struct {
	members []member
	workers int
	gen     uint64
	th      *fulltext.Thesaurus

	// anonymous marks a Database run: the one member's node IDs
	// identify nodes on their own, so the unmatched inputs are reported
	// by ID and member errors need no name in front.
	anonymous bool
}

// resolver is what Database and Corpus each bring to the one execution
// pipeline: the target a request addressed to doc runs against.
type resolver func(doc string) (target, error)

// resolve makes a Database the degenerate target: itself as one
// anonymous member at generation 0, which never changes.
func (db *Database) resolve(doc string) (target, error) {
	if doc != "" {
		return target{}, fmt.Errorf("ncq: %w %q: a Database holds a single document; clear Request.Doc or run against a Corpus", ErrUnknownDoc, doc)
	}
	return target{members: []member{{db: db}}, workers: 1, anonymous: true}, nil
}

// memberErr names the member an execution error came from.
func (t *target) memberErr(i int, err error) error {
	if t.anonymous {
		return err
	}
	return fmt.Errorf("ncq: corpus %q: %w", t.members[i].name, err)
}

// openPage resolves req's target and its page position in it: the
// offset its cursor resumes at, or ErrStaleCursor when the cursor was
// minted against another generation of the membership.
func openPage(r resolver, req *Request) (t target, offset int, err error) {
	offset, curGen, err := req.Page()
	if err != nil {
		return target{}, 0, err
	}
	if t, err = r(req.Doc); err != nil {
		return target{}, 0, err
	}
	if req.Cursor != "" && curGen != t.gen {
		return target{}, 0, fmt.Errorf("ncq: %w: the corpus changed since this cursor was minted", ErrStaleCursor)
	}
	return t, offset, nil
}

// Results implements Querier: the ranked meets of a request as an
// incremental sequence. See ResultsWithStats for the full contract.
func (db *Database) Results(ctx context.Context, req Request) iter.Seq2[CorpusMeet, error] {
	seq, _ := db.ResultsWithStats(ctx, req)
	return seq
}

// ResultsWithStats is Corpus.ResultsWithStats over the single loaded
// document: Source and Shard are empty in every yielded meet (a
// Database is one anonymous document), Request.Doc must be empty, the
// stats list the unmatched inputs by node, and the generation is 0 — a
// loaded document is immutable, so its cursors never go stale.
func (db *Database) ResultsWithStats(ctx context.Context, req Request) (iter.Seq2[CorpusMeet, error], *StreamStats) {
	return resultsWithStats(ctx, db.resolve, req)
}

// Results implements Querier: the globally ranked meets of a corpus
// request as an incremental sequence. See ResultsWithStats for
// the full contract.
func (c *Corpus) Results(ctx context.Context, req Request) iter.Seq2[CorpusMeet, error] {
	seq, _ := c.ResultsWithStats(ctx, req)
	return seq
}

// ResultsWithStats is Results plus the stream-level counters. The
// members of the request — the whole membership, or the shards of the
// named document — compute and locally rank their answers in parallel
// (bounded by SetParallelism); the yielded sequence is their k-way
// merge in the exact (distance, source, shard, node) total order of
// Run, flowing as soon as every member has produced its head. The
// returned stats are zero until that fan-out completes and are
// published before the first yield. The sequence is single-use:
// ranging over it a second time re-executes the request.
//
// Request.Cursor skips into the ranked stream — failing with
// ErrStaleCursor if the corpus has mutated since the cursor was minted
// — and Request.Limit ends the sequence early, exactly like one Run
// page. A context error surfaces as the sequence's final yield.
func (c *Corpus) ResultsWithStats(ctx context.Context, req Request) (iter.Seq2[CorpusMeet, error], *StreamStats) {
	return resultsWithStats(ctx, c.resolve, req)
}

// resultsWithStats is the one pipeline: every member of the request's
// target ranks its own answers, and the sequence is their merge.
func resultsWithStats(ctx context.Context, r resolver, req Request) (iter.Seq2[CorpusMeet, error], *StreamStats) {
	stats := &StreamStats{}
	seq := func(yield func(CorpusMeet, error) bool) {
		g, offset, err := fanOut(ctx, r, &req, stats)
		if err != nil {
			yield(CorpusMeet{}, err)
			return
		}
		defer release(g.streams)
		drain(ctx, g, offset, req.Limit, yield)
	}
	return seq, stats
}

// fanOut runs the members of req's target up to their ranked streams,
// publishes the counters in stats and returns the merge over them. A
// query-language request is parsed once, here, and a term request's
// patterns are compiled once, here — before any member is resolved, so
// an invalid one fails alike on every corpus, an empty one included —
// as are its terms expanded once, through the target's thesaurus. The
// two differ in nothing but how each member comes by its input sets.
func fanOut(ctx context.Context, r resolver, req *Request, stats *StreamStats) (*merger[CorpusMeet], int, error) {
	sh, err := req.shape()
	if err != nil {
		return nil, 0, err
	}
	var q *query.Query
	if req.Query != "" {
		if q, err = query.Parse(req.Query); err != nil {
			return nil, 0, err
		}
	}
	t, offset, err := openPage(r, req)
	if err != nil {
		return nil, 0, err
	}
	var classes [][]string
	if req.Vague != nil && req.Vague.Expand {
		classes = expand(t.th, req.Terms)
	}
	merged := make([]memberStream[CorpusMeet], len(t.members))
	err = forEachDoc(ctx, len(t.members), t.workers, func(i int) error {
		m := t.members[i]
		var s *localStream
		var err error
		if q != nil {
			s, err = m.db.queryMeetsStream(ctx, q)
		} else {
			s, err = m.db.termMeetsStream(ctx, req.Terms, classes, req.Options, sh, req.Vague)
		}
		if err != nil {
			return t.memberErr(i, err)
		}
		s.source, s.shard = m.name, int32(m.shard)
		merged[i] = s
		return nil
	})
	if err != nil {
		release(merged)
		return nil, 0, err
	}
	total, unmatched := 0, 0
	if req.Vague != nil {
		stats.RelaxationsBySlack = make([]int, req.Vague.MaxSlack+1)
	}
	for _, ms := range merged {
		s := ms.(*localStream)
		total += s.pending()
		unmatched += len(s.unmatched)
		for sl, n := range s.relaxBySlack {
			stats.RelaxationsBySlack[sl] += n
		}
		if t.anonymous {
			stats.UnmatchedNodes = s.unmatched
		}
	}
	stats.Fill(req, offset, t.gen, total, unmatched)
	g, err := newMerger(merged, meetKey)
	if err != nil {
		release(merged)
		return nil, 0, err
	}
	return g, offset, nil
}
