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
//      arena, and the rank order). A meet's rank is its distance, and
//      the rows arrive in node order, so one stable counting sort on
//      the distance ranks them exactly by (distance, node), and a pull
//      is an index increment. Only an answer the request yields is
//      taken from the columns: as a public Meet (tag, path, a copy of
//      the row's witnesses), or as its NDJSON line (LinesWithStats), a
//      memoized head and infix around the row's tail. The buffers go
//      back to the pool once the request's merge is done.
//   2. merger: a k-way heap merge of the members' rank keys. Globally
//      ordered meets flow as soon as every member has produced its
//      head, so the first answer reaches the caller bounded by the
//      slowest member's first result, never by a global sort.
//
// The public entry point is Results (range-over-func); Run drains the
// same sequence and attaches the page metadata, and a pushed-down
// Limit is nothing more than the consumer stopping early.

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ncq/internal/core"
	"ncq/internal/fulltext"
	"ncq/internal/meetline"
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

// memberStream is one member's ranked answer stream, the fan-out unit
// the k-way merge runs over. Two implementations exist: localStream
// (an in-process member whose rows are ranked by a counting sort) and
// sourceStream (an adapter over an external MeetSource — how
// internal/cluster's coordinator merges remote workers' NDJSON
// streams). advance moves the stream to its next element in its local
// rank order and writes that element's rank key into h, all but
// h.stream, which the merge owns; false ends the stream and a non-nil
// error aborts the whole merge. take returns the element the last
// advance moved to, so a member renders only what the merge yields.
type memberStream[T any] interface {
	advance(h *head) (bool, error)
	take() T
}

// localStream is the in-process memberStream: the member's rows and
// their rank order, read one position per pull — a member drained only
// partially (an early Limit, an abandoned stream) never pays for
// rendering its tail, and a cursor's skipped prefix is never rendered.
type localStream struct {
	source string // logical member name; empty for a Database run
	shard  int32  // 1-based shard; 0 for plain members
	pos    int32  // the rank position the next advance moves to

	// projValue and projXML say which text a query-language projection
	// asked for; it is rendered, like the meet, on the way out. rolled
	// says the rows are a roll-up's answer, whose unmatched inputs a
	// Database run lists; a projection lists none. The three sit in the
	// padding after shard and pos, and every request allocates one
	// stream per member.
	projValue, projXML, rolled bool

	db  *Database
	buf *memberBuf

	// relaxBySlack counts the member's answers per structural slack
	// used (index = slack); nil for exact requests.
	relaxBySlack []int
}

// memberBuf is the pooled storage of one member's answer: the columns
// the roll-up writes, the rank order over the rows, and
// the member's line head and the line a lineStream builds. A stream
// borrows one and the request hands it back (release) once its merge is
// done; nothing a yielded meet holds points into it.
type memberBuf struct {
	core.Answers
	order      []int32
	head, line []byte
}

var memberBufPool = sync.Pool{New: func() any { return new(memberBuf) }}

func getMemberBuf() *memberBuf { return memberBufPool.Get().(*memberBuf) }

// putMemberBuf hands b back to the pool emptied, unless its columns or
// its line outgrew what the pool keeps.
func putMemberBuf(b *memberBuf) {
	if !b.Poolable() || cap(b.line) > core.MaxPooledRows {
		return
	}
	b.Rows, b.Wits, b.Unmatched = b.Rows[:0], b.Wits[:0], b.Unmatched[:0]
	b.order, b.head, b.line = b.order[:0], nil, b.line[:0]
	memberBufPool.Put(b)
}

// rankOrder returns the indices of rows in rank order, in order's
// storage: a stable LSD counting sort on distance − min, 8 bits a
// pass, so a span under 256 takes one pass and a span of 0 none. The
// rows come in (node, row) order — the roll-up's and a projection's —
// so the order is (distance, node, row) exactly. The storage is used
// twice over: each pass reads one half and writes the other.
func rankOrder(rows []core.Row, order []int32) []int32 {
	n := len(rows)
	if n == 0 {
		return order[:0]
	}
	lo, hi := rows[0].Distance, rows[0].Distance
	for _, r := range rows[1:] {
		lo, hi = min(lo, r.Distance), max(hi, r.Distance)
	}
	span := uint32(hi) - uint32(lo)
	passes := 0
	for s := span; s > 0; s >>= 8 {
		passes++
	}
	// The parity picks the half the rows start in, in their own order,
	// so that the last pass lands in order[:n].
	order = slices.Grow(order[:0], 2*n)[:2*n]
	src, out := order[:n], order[n:]
	if passes%2 == 1 {
		src, out = out, src
	}
	for i := range src {
		src[i] = int32(i)
	}
	for p := range passes {
		shift := 8 * p
		digit := func(i int32) uint32 { return (uint32(rows[i].Distance) - uint32(lo)) >> shift & 0xff }
		var count [256]int32
		for _, i := range src {
			count[digit(i)]++
		}
		sum := int32(0)
		for d := range min(span>>shift, 255) + 1 {
			count[d], sum = sum, sum+count[d]
		}
		for _, i := range src {
			d := digit(i)
			out[count[d]] = i
			count[d]++
		}
		src, out = out, src
	}
	return order[:n]
}

// newLocalStream ranks buf's rows (in document order, as the roll-up
// emits them, distances already blended in vague mode) under the
// member-local rank. Nothing is rendered yet.
func newLocalStream(db *Database, buf *memberBuf) *localStream {
	buf.order = rankOrder(buf.Rows, buf.order)
	return &localStream{db: db, buf: buf}
}

func (s *localStream) pending() int { return len(s.buf.order) - int(s.pos) }

// release returns the buffers of the streams, which are spent; a nil
// entry — a member that never got as far — is skipped.
func release(streams []*localStream) {
	for _, s := range streams {
		if s != nil {
			putMemberBuf(s.buf)
			s.buf = nil
		}
	}
}

// advance implements memberStream: the next row in rank order, keyed
// by its distance and node under the member's identity.
func (s *localStream) advance(h *head) (bool, error) {
	if s.pending() == 0 {
		return false, nil
	}
	r := &s.buf.Rows[s.buf.order[s.pos]]
	h.distance, h.source, h.shard, h.node, h.seq = int(r.Distance), s.source, int(s.shard), r.Meet, s.pos
	s.pos++
	return true, nil
}

// take implements memberStream: render the row the last advance moved
// to — with its own copy of the row's witnesses, nil for a row without
// any — and wrap it with the member's identity.
func (s *localStream) take() CorpusMeet {
	i := int(s.buf.order[s.pos-1])
	row := &s.buf.Rows[i]
	r := core.Result{Meet: row.Meet, Distance: int(row.Distance)}
	if ws := s.buf.Witnesses(i); len(ws) > 0 {
		r.Witnesses = slices.Clone(ws)
	}
	m := s.db.renderMeet(r)
	if s.projValue || s.projXML {
		// A meet handed out may outlive the store: its texts are its own.
		value, xml := s.projected(m.Node)
		m.Projected = &Projection{Value: strings.Clone(value), XML: strings.Clone(xml)}
	}
	return CorpusMeet{Source: s.source, Shard: int(s.shard), Meet: m}
}

// projected renders the texts a query-language projection asked for.
func (s *localStream) projected(n NodeID) (value, xml string) {
	if s.projValue {
		value = s.db.engine.Value(n)
	}
	if s.projXML {
		xml = s.db.engine.XML(n)
	}
	return value, xml
}

// lineStream is a localStream whose take writes the row's stream line
// into the member's line buffer where localStream's renders its meet.
type lineStream localStream

func (s *lineStream) advance(h *head) (bool, error) { return (*localStream)(s).advance(h) }

func (s *lineStream) take() []byte {
	i := int(s.buf.order[s.pos-1])
	row := &s.buf.Rows[i]
	line := strconv.AppendUint(append(s.buf.line[:0], s.buf.head...), uint64(row.Meet), 10)
	line = append(line, s.db.infixes[s.db.store.PathOf(row.Meet)]...)
	wits := s.buf.Witnesses(i)
	if len(wits) == 0 {
		wits = nil // null, as a rendered meet spells a row without any
	}
	value, xml := (*localStream)(s).projected(row.Meet)
	s.buf.line = meetline.AppendTail(line, wits, int(row.Distance), s.projValue || s.projXML, value, xml)
	return s.buf.line
}

// termMeetsStream is a term request on one member: one full-text
// search per term, the multi-set meet, and the member's answers
// delivered as a ranked stream. The unmatched set and the total are
// known as soon as it returns; the rendering cost is paid per yield.
//
// sh is opt's path shape, compiled once for the whole request
// (Options.shape); the member reads its plan for sh from its memo. A
// non-nil vg runs the member in vague mode: restrict patterns admit
// paths approximately and structural slack blends into each answer's
// distance before the rows are ranked, so the blended score is the
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
	s := newLocalStream(db, buf)
	s.projValue, s.projXML = q.Projects()
	return s, nil
}

// meetStream rolls the input sets up and ranks the answers —
// the one meet execution of the pipeline, whoever produced the sets.
// vp is the zero vaguePlan unless the request is vague.
func (db *Database) meetStream(ctx context.Context, sets [][]NodeID, copt *core.Options, vp vaguePlan) (*localStream, error) {
	// The context threads into the roll-up itself (checked every 4,096
	// inputs), so a deadline interrupts one huge member mid-meet, not
	// just between members.
	buf := getMemberBuf()
	if err := core.MeetInto(ctx, db.store, sets, copt, &buf.Answers); err != nil {
		putMemberBuf(buf)
		return nil, fmt.Errorf("ncq: %w", err)
	}
	if vp.relaxBySlack != nil {
		// Blend before the rows are ranked, so the blended score IS the
		// order the member, the k-way merge and the coordinator all see.
		vp.blend(buf.Rows)
	}
	s := newLocalStream(db, buf)
	s.rolled, s.relaxBySlack = true, vp.relaxBySlack
	return s, nil
}

// testStreamPull, when set, is invoked every time the merge pulls the
// next meet from a member's local stream to replace a consumed head;
// remaining is how many meets the member still holds before the pull.
// Tests use it to slow one member's drain and observe that globally
// ranked meets flow while that member's stream is still mid-flight.
var testStreamPull func(source string, shard, remaining int)

// head is one entry of the k-way merge: the rank key of a member's
// current element — its global (distance, source, shard, node) rank,
// seq, its position in the member's own order, and stream, which of
// the merger's streams it came from. The element itself stays with its
// stream until the merge takes it.
type head struct {
	distance int
	source   string
	shard    int
	node     NodeID
	seq      int32
	stream   int32
}

// less is the global RankLess order, then the member-local position,
// then the stream. Full RankLess ties can only occur within one member
// (each member owns a distinct (source, shard)), and one member has one
// head at a time, so the last two only make sources that break that
// rule merge deterministically.
func (a *head) less(b *head) bool {
	if a.distance != b.distance {
		return a.distance < b.distance
	}
	if a.source != b.source {
		return a.source < b.source
	}
	if a.shard != b.shard {
		return a.shard < b.shard
	}
	if a.node != b.node {
		return a.node < b.node
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.stream < b.stream
}

// siftDown restores the min-heap property of h at index i; heapify
// establishes it over the whole slice in O(n).
func siftDown(h []head, i int) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && h[r].less(&h[child]) {
			child = r
		}
		if !h[child].less(&h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

func heapify(h []head) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// merger merges the per-member ranked streams into the global rank: a
// heap of the members' head keys, refilled from the owning member as
// heads are consumed. Construction needs every member's head — the
// global minimum cannot be known sooner — which is exactly the "slowest
// member's first result" latency bound.
type merger[T any] struct {
	streams []memberStream[T]
	heads   []head
}

func newMerger[T any](streams []memberStream[T]) (*merger[T], error) {
	g := &merger[T]{streams: streams, heads: make([]head, 0, len(streams))}
	for i, s := range streams {
		g.heads = append(g.heads, head{stream: int32(i)})
		ok, err := s.advance(&g.heads[len(g.heads)-1])
		if err != nil {
			return nil, err
		}
		if !ok {
			g.heads = g.heads[:len(g.heads)-1]
		}
	}
	heapify(g.heads)
	return g, nil
}

// pop moves past the globally next-ranked element, refilling its head
// from its member's stream, and returns the element when take is set —
// taken before the refill, so a source may reuse what it yielded once
// the element after it has been read. A member failing mid-refill —
// only possible for remote sources — aborts the merge with its error.
func (g *merger[T]) pop(take bool) (out T, ok bool, err error) {
	if len(g.heads) == 0 {
		return out, false, nil
	}
	h := &g.heads[0]
	s := g.streams[h.stream]
	if take {
		out = s.take()
	}
	if hook := testStreamPull; hook != nil {
		if ls, ok := any(s).(*localStream); ok {
			hook(ls.source, int(ls.shard), ls.pending())
		}
	}
	more, err := s.advance(h)
	if err != nil {
		return *new(T), false, err
	}
	if !more {
		last := len(g.heads) - 1
		g.heads[0] = g.heads[last]
		g.heads = g.heads[:last]
	}
	siftDown(g.heads, 0)
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
// elements without taking them, then yield up to limit (0 = all),
// checking ctx before every pop — skipped or yielded — so a cancelled
// consumer stops mid-stream with the context's error. A member failing
// mid-merge surfaces as the final yield.
func drain[T any](ctx context.Context, g *merger[T], offset, limit int, yield func(T, error) bool) {
	for n := -offset; limit <= 0 || n < limit; n++ {
		if err := ctx.Err(); err != nil {
			yield(*new(T), err)
			return
		}
		m, ok, err := g.pop(n >= 0)
		if err != nil {
			yield(*new(T), err)
			return
		}
		if !ok || n >= 0 && !yield(m, nil) {
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

// sourceStream adapts an exported MeetSource to the internal merge: it
// holds the element last read, keys the head by it, and numbers the
// elements in arrival order for seq.
type sourceStream[T any] struct {
	src MeetSource[T]
	key func(*T) *CorpusMeet
	cur T
	seq int32
}

func (s *sourceStream[T]) advance(h *head) (bool, error) {
	m, ok, err := s.src.Next()
	if err != nil || !ok {
		return false, err
	}
	s.cur = m
	k := s.key(&s.cur)
	h.distance, h.source, h.shard, h.node, h.seq = k.Distance, k.Source, k.Shard, k.Node, s.seq
	s.seq++
	return true, nil
}

func (s *sourceStream[T]) take() T { return s.cur }

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
// source error, or ctx expiring, surfaces as the sequence's final
// yield. The sequence is single-use.
func MergeMeets[T any](ctx context.Context, sources []MeetSource[T], key func(*T) *CorpusMeet, offset, limit int) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		streams := make([]memberStream[T], len(sources))
		for i, src := range sources {
			streams[i] = &sourceStream[T]{src: src, key: key}
		}
		g, err := newMerger(streams)
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
	members []*member
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
	return target{members: []*member{{db: db}}, workers: 1, anonymous: true}, nil
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
	seq, _ := resultsWithStats(ctx, db.resolve, req)
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
	seq, _ := resultsWithStats(ctx, c.resolve, req)
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

// LinesWithStats is ResultsWithStats with each meet m yielded as its
// NDJSON stream line, the bytes json.Marshal gives for {"meet": m} and
// a newline, built from the member's columns without rendering m. A
// line is valid until the sequence's next step.
func (c *Corpus) LinesWithStats(ctx context.Context, req Request) (iter.Seq2[[]byte, error], *StreamStats) {
	stats := &StreamStats{}
	return func(yield func([]byte, error) bool) {
		locals, offset, err := fanOut(ctx, c.resolve, &req, stats)
		merge(ctx, locals, offset, req.Limit, err, func(s *localStream) memberStream[[]byte] { return (*lineStream)(s) }, yield)
	}, stats
}

// resultsWithStats is the one pipeline: every member of the request's
// target ranks its own answers, and the sequence is their merge.
func resultsWithStats(ctx context.Context, r resolver, req Request) (iter.Seq2[CorpusMeet, error], *StreamStats) {
	stats := &StreamStats{}
	return func(yield func(CorpusMeet, error) bool) {
		locals, offset, err := fanOut(ctx, r, &req, stats)
		merge(ctx, locals, offset, req.Limit, err, func(s *localStream) memberStream[CorpusMeet] { return s }, yield)
	}, stats
}

// merge yields the merge of a request's member streams, each taken as
// as makes it, or the request's failure err.
func merge[T any](ctx context.Context, locals []*localStream, offset, limit int, err error, as func(*localStream) memberStream[T], yield func(T, error) bool) {
	if err != nil {
		yield(*new(T), err)
		return
	}
	defer release(locals)
	streams := make([]memberStream[T], len(locals))
	for i, s := range locals {
		streams[i] = as(s)
	}
	g, err := newMerger(streams)
	if err != nil {
		yield(*new(T), err)
		return
	}
	drain(ctx, g, offset, limit, yield)
}

// fanOut runs the members of req's target up to their ranked streams,
// publishes the counters in stats and returns the streams. A
// query-language request is parsed once, here, and a term request's
// patterns are compiled once, here — before any member is resolved, so
// an invalid one fails alike on every corpus, an empty one included —
// as are its terms expanded once, through the target's thesaurus. The
// two differ in nothing but how each member comes by its input sets.
func fanOut(ctx context.Context, r resolver, req *Request, stats *StreamStats) ([]*localStream, int, error) {
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
	locals := make([]*localStream, len(t.members))
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
		s.source, s.shard, s.buf.head = m.name, int32(m.shard), m.head
		locals[i] = s
		return nil
	})
	if err != nil {
		release(locals)
		return nil, 0, err
	}
	total, unmatched := 0, 0
	if req.Vague != nil {
		stats.RelaxationsBySlack = make([]int, req.Vague.MaxSlack+1)
	}
	for _, s := range locals {
		total += s.pending()
		unmatched += len(s.buf.Unmatched)
		for sl, n := range s.relaxBySlack {
			stats.RelaxationsBySlack[sl] += n
		}
		if t.anonymous && s.rolled {
			stats.UnmatchedNodes = append([]NodeID{}, s.buf.Unmatched...)
		}
	}
	stats.Fill(req, offset, t.gen, total, unmatched)
	return locals, offset, nil
}
