// Package fulltext provides the full-text search engine the paper
// combines with the meet operator ("it can serve as a sensible and
// valuable add-on to an already existing search engine for
// semi-structured or XML data", Section 5).
//
// The engine indexes every string association of a Monet XML store —
// the character data of cdata nodes and all attribute values — twice,
// and the two indexes have different lifetimes.
//
// The substring index answers the paper's `contains` predicate, which
// is how every served request locates its terms, so every build makes
// it and everything it rests on. All associations live in one table of
// parallel columns (owner OID, attribute path, value id) in (owner,
// path) order, string values interned once in a value table — one
// 4-byte value id per association. The table is the store's own
// (monetx.Store.Table): an index shares its columns and keeps no copy.
// Every byte trigram of a distinct value hashes into one of 2^15
// buckets listing the value ids carrying it, each bucket packed as
// uvarint gaps between ascending ids (about one byte an entry), and
// each value lists the rows carrying it. A needle's rarest buckets are
// intersected and strings.Contains verifies the survivors, so hash
// collisions cost time, never correctness; needles shorter than a
// trigram scan the value table.
//
// One builder makes every index. An upload feeds it from the loader
// (NewLoader): the loader hands over its associations in chunks of a
// few thousand while the parse goes on, and the builder takes them on a
// goroutine of its own, interning each value — value ids in the order
// fed — and running the trigram counting pass over every new one, so
// both are done on a second core beside the parse. Once the root closes
// that goroutine adds the last chunk and fills the buckets while the
// loader lays out the store's table with the builder's value ids and
// seals the store; the index then takes the table and lays out the
// value→rows table over it. The loader's scratch is released only after
// the builder has stopped reading the chunks. A snapshot restore is a
// load too: its events replay into the same loader. New builds an index
// over a sealed store for callers that hold one: it shares the store's
// owner and path columns and numbers the values path-major, which
// locate reads faster (see New); the two give the same rows and the
// same answers, though value ids differ in order.

// An Index never changes once built, so OwnersSubstring memoizes its
// answers: a needle is located once per index and every later request
// for it reads the shared owner slice. The memo (internal/memo) keeps
// two generations, each capped at one 4-byte OID per association row of
// the index — counting every entry's owners, its key bytes and one more
// — so its owners and keys take at most 8 bytes a row, beside the maps'
// own per-entry overhead; it needs no invalidation and is dropped with
// its index when a document is replaced. Only its misses read the
// trigram buckets.
//
// A thesaurus broadens a needle without leaving these semantics:
// OwnersSubstringAny unions the memoized owners of every entry of its
// class, each entry matched as written.
//
// The token index — an inverted index keyed by lower-cased token, each
// posting list a sorted slice of row ids into the association table —
// answers whole-word and phrase search: Search and Terms. Nothing a
// request or the root package calls reads it, only the paper's Figure 6
// experiment and the benchmark's per-layer table; so no upload,
// snapshot load, recovery or query builds it: the first token search on
// an index does, once (about 15 ms per MB of XML). Single-token search
// is a single gather pass over one posting list; phrase search narrows
// candidates by merging sorted postings before verification.
//
// A hit identifies the node carrying the string: the cdata node's OID
// for character data, the owning element's OID for attribute values.
// These owner OIDs are exactly the inputs the meet operator expects,
// and Groups partitions them by element path — the R_1 … R_n relations
// of the paper's Figure 5.
package fulltext

import (
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"ncq/internal/bat"
	"ncq/internal/memo"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
)

// Hit is one matched string association.
type Hit struct {
	Owner bat.OID        // node carrying the string (cdata node or attribute owner)
	Path  pathsum.PathID // the attribute path of the string association
	Value string         // the full stored string: a view of the store's values
}

// valueID indexes the shared value table: every stored string is
// interned once and referenced by id from the association columns. It is
// the store's value id, so an index can share the store's columns.
type valueID = uint32

// Index is an inverted index over all string associations of a store.
type Index struct {
	store  *monetx.Store
	values []string // interned distinct strings, by value id

	// The association table: one row per stored string association,
	// sorted by (owner, path) — the store's own columns, shared; New
	// keeps vals and values of its own. Predicate scans evaluate the
	// predicate once per distinct value and reach its rows through
	// valRows.
	owners []bat.OID
	paths  []pathsum.PathID
	vals   []valueID

	// post maps a token to the sorted row ids of the associations
	// containing it — the compact posting lists. Row order is
	// (owner, path) order, so a posting list materialises into an
	// ordered result with a single gather pass, and intersecting two
	// postings is a linear merge of sorted ints. Only postings reads or
	// writes it: locate never does, so it is built by the first token
	// search and an index nobody token-searches never carries it.
	postOnce   sync.Once
	post       map[string][]int32
	postBuilds atomic.Int32 // builds run: 0 or 1

	// The substring index, two CSR tables: trigram bucket h owns
	// grams[gramStart[h]:gramStart[h+1]], the ascending ids of the values
	// with a trigram hashing to h as uvarint gaps (the first from -1, so
	// no gap is 0); value v owns valRows[valStart[v]:valStart[v+1]], the
	// ascending rows carrying it, so a match reaches its associations
	// without a table sweep.
	gramStart []int32
	grams     []byte
	valStart  []int32
	valRows   []int32
	// memo holds the owners OwnersSubstring located, by needle, for as
	// long as the index lives: nothing above ever changes, so no entry
	// goes stale. Each generation's cap is len(owners), in memoCharge.
	memo *memo.Memo[string, []bat.OID]
}

// memoCharge is what one memo entry counts against its generation's
// cap, in OIDs: its owners, its key at four bytes to the OID, and one
// for the entry itself, so a needle that matches nothing is charged too.
func memoCharge(key string, owners []bat.OID) int { return len(owners) + len(key)/4 + 1 }

// memoCounts counts every OwnersSubstring call, over every index in the
// process, as a memo hit or a miss.
var memoCounts memo.Counts

// MemoCounts returns how many OwnersSubstring calls, over every index
// in the process, were answered from the memo and how many located.
func MemoCounts() (hits, misses uint64) { return memoCounts.Load() }

const (
	gramLen     = 3 // bytes per gram: shorter needles cannot use the index
	gramBits    = 15
	gramBuckets = 1 << gramBits // hashed trigram buckets per index
)

// gramHash maps a byte trigram to its bucket by Fibonacci hashing.
func gramHash(a, b, c byte) uint32 { return gramBucket(uint32(a) | uint32(b)<<8 | uint32(c)<<16) }

// gramBucket is gramHash of the trigram packed little-endian in key: the
// build rolls key along a value, a byte in and a byte out per trigram.
func gramBucket(key uint32) uint32 { return key * 0x9E3779B1 >> (32 - gramBits) }

// Tokenize splits s into lower-cased maximal runs of letters and
// digits. "Hacking & RSI" tokenizes to ["hacking", "rsi"]. Tokens are
// cloned, so retaining one does not pin s in memory.
func Tokenize(s string) []string {
	toks := appendTokens(nil, s)
	for i, t := range toks {
		toks[i] = strings.Clone(t)
	}
	return toks
}

// appendTokens appends the tokens of s to dst. Tokens are sliced out
// of s (or of one lower-cased copy when s contains upper-case runes)
// rather than built rune by rune, so tokenizing allocates at most once
// per value instead of once per token. The tokens alias s — fine for
// the index build, which retains every value in the value table
// anyway; the exported Tokenize clones them instead.
func appendTokens(dst []string, s string) []string {
	lower := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf || ('A' <= c && c <= 'Z') {
			lower = false
			break
		}
	}
	if !lower {
		// Per-rune lowering preserves letter/digit runs, so token
		// boundaries in the lowered copy match those in s.
		s = strings.Map(unicode.ToLower, s)
	}
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// firstToken returns the first token of s lower-cased, the remainder
// of s after it, and whether a token was found. For terms that are
// already lower-case it allocates nothing.
func firstToken(s string) (tok, rest string, ok bool) {
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			return lowerToken(s[start:i]), s[i:], true
		}
	}
	if start >= 0 {
		return lowerToken(s[start:]), "", true
	}
	return "", "", false
}

func lowerToken(t string) string {
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= utf8.RuneSelf || ('A' <= c && c <= 'Z') {
			return strings.Map(unicode.ToLower, t)
		}
	}
	return t
}

// dedupTokens removes duplicate tokens in place, keeping first
// occurrences in order. Values carry a handful of tokens almost
// always, so the small-slice sweep beats a per-association set
// allocation (which used to dominate index build on token-dense
// corpora); token-heavy values (long cdata passages) fall back to a
// set so one big string cannot make the build quadratic.
func dedupTokens(toks []string) []string {
	const smallDedup = 32
	if len(toks) > smallDedup {
		seen := make(map[string]struct{}, len(toks))
		w := 0
		for _, t := range toks {
			if _, dup := seen[t]; !dup {
				seen[t] = struct{}{}
				toks[w] = t
				w++
			}
		}
		return toks[:w]
	}
	w := 0
	for _, t := range toks {
		dup := false
		for j := 0; j < w; j++ {
			if toks[j] == t {
				dup = true
				break
			}
		}
		if !dup {
			toks[w] = t
			w++
		}
	}
	return toks[:w]
}

// buildScratch holds a build's transients: the interning table, with
// the value id of every association in the order fed, and the trigram
// buckets' build state.
// kept retains one set between builds, emptied; an abandoned build never
// gives its set back.
type buildScratch struct {
	in      monetx.Interner
	buckets *[gramBuckets]bucket
}

// bucket is one trigram bucket's build state: the last value id listed
// in it, and its size in bytes, then the offset its next entry takes.
// Side by side, the two cost a trigram's visit one cache line.
type bucket struct{ last, n int32 }

var kept atomic.Pointer[buildScratch]

// builder builds one Index. Fed by a loader, as a monetx.Indexer, it
// interns each value from the loader's bytes — ids in the order fed —
// and runs the trigram counting pass over the same bytes of every new
// one on its own goroutine, while the part is still being parsed. Once
// the root closes that goroutine adds the last chunk, makes the
// distinct values strings of their own and lays out the trigram buckets
// over them, while the loader lays out the store's table from the ids
// Wait hands it; finish then shares the table's columns and lays out the
// value→rows table over them.
type builder struct {
	sc     *buildScratch
	idx    *Index   // what is laid out so far
	values []string // the distinct values, once the last chunk is added
	sent   int      // how many associations went to the goroutine
	solo   bool     // one processor: Close adds every association

	chunks chan monetx.Chunk // to the goroutine; nil until the first Feed
	closed bool              // chunks is closed
	fed    chan struct{}     // closed once the goroutine reads no chunk any more
	done   chan struct{}     // closed as the goroutine exits
	stop   atomic.Bool       // the part was abandoned: skip the rest
}

// feedQueue is how many chunks may wait for the builder goroutine, so
// the parse runs on while it is briefly descheduled.
const feedQueue = 4

func newBuilder() *builder {
	sc := kept.Swap(nil)
	if sc == nil {
		sc = &buildScratch{buckets: new([gramBuckets]bucket)}
	}
	for i := range sc.buckets {
		sc.buckets[i] = bucket{last: -1}
	}
	return &builder{sc: sc, idx: new(Index)}
}

// New builds what locate reads — value table, value→rows table,
// substring index — over a sealed store's association table, whose
// owner and path columns it shares. It numbers the values afresh,
// path-major: in the order the rows at each attribute path, path after
// path, first carry them, so that the values of one path — the ones a
// needle most often matches together — have near ids, which keeps the
// trigram buckets' gaps small and their decoding short. The token
// postings are not built here: see postings.
func New(store *monetx.Store) *Index {
	owners, paths, storeVals, storeValues := store.Table()
	// The rows in path-major order: a counting sort on the path, stable,
	// so each path's rows stay in owner order.
	start := make([]int32, store.Summary().Len()+1)
	for _, p := range paths {
		start[p+1]++
	}
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	order := make([]int32, len(paths))
	for r, p := range paths {
		order[start[p]] = int32(r)
		start[p]++
	}
	b := newBuilder()
	renum := make([]valueID, len(storeValues)) // a store value's new id + 1; 0 until seen
	values := make([]string, 0, len(storeValues))
	vals := make([]valueID, len(paths))
	for _, r := range order {
		sv := storeVals[r]
		if renum[sv] == 0 {
			countGrams(b.sc.buckets, int32(len(values)), storeValues[sv])
			values = append(values, storeValues[sv])
			renum[sv] = valueID(len(values))
		}
		vals[r] = renum[sv] - 1
	}
	b.idx.fillGrams(b.sc.buckets, values)
	return b.finish(store, owners, paths, vals, values)
}

// NewLoader returns a loader that builds each part's Index beside its
// parse and hands it to emit, with the part's sealed store as its
// Store and that store's table as its own. The loader's Abort stops a
// part's builder and waits for it.
func NewLoader(emit func(*Index) error) *monetx.Loader {
	var b *builder
	return monetx.NewIndexingLoader(func() monetx.Indexer { b = newBuilder(); return b },
		func(s *monetx.Store) error {
			owners, paths, vals, values := s.Table()
			return emit(b.finish(s, owners, paths, vals, values))
		})
}

// Feed hands a chunk to the builder goroutine, starting it on the first.
// With one processor there is no second core to run it on, so the chunk
// waits for Close.
func (b *builder) Feed(chunk monetx.Chunk) {
	if b.chunks == nil && !b.solo {
		if b.solo = runtime.GOMAXPROCS(0) == 1; !b.solo {
			b.chunks = make(chan monetx.Chunk, feedQueue)
			b.fed, b.done = make(chan struct{}), make(chan struct{})
			go b.run()
		}
	}
	if !b.solo {
		b.chunks <- chunk
		b.sent += chunk.Len()
	}
}

// Close hands over the rest of the part's associations. Without a
// goroutine — a part too small to have fed a chunk before, or one
// processor — every association is added, and the grams laid out, here
// on the loader's goroutine.
func (b *builder) Close(all monetx.Chunk) {
	if b.chunks == nil {
		b.addChunk(all)
		b.values = b.sc.in.Values(all.Text())
		b.grams()
		return
	}
	b.chunks <- all.From(b.sent)
	close(b.chunks)
	b.closed = true
}

// Wait returns once no chunk is read any more. An abort makes the
// goroutine, if any, skip what it has not read and lay out nothing, and
// waits for it to exit. Otherwise Wait waits for the goroutine to read
// the last chunk — every value is interned and copied out then, and the
// goroutine goes on to lay out grams, which finish waits for — and hands
// the ids and the values over.
func (b *builder) Wait(abort bool) (ids []uint32, values []string) {
	if b.chunks != nil {
		if abort {
			b.stop.Store(true)
		}
		if !b.closed {
			close(b.chunks)
			b.closed = true
		}
		if abort {
			<-b.done
		} else {
			<-b.fed
		}
	}
	if abort {
		return nil, nil
	}
	return b.sc.in.IDs(), b.values
}

// run is the builder goroutine: it adds every chunk and, once the last
// has come, copies the distinct values out of the loader's arena — the
// last chunk's holds them all — and lays out grams, unless the part was
// abandoned.
func (b *builder) run() {
	defer close(b.done)
	var last monetx.Chunk
	for c := range b.chunks {
		if !b.stop.Load() {
			b.addChunk(c)
			last = c
		}
	}
	if !b.stop.Load() {
		b.values = b.sc.in.Values(last.Text())
	}
	close(b.fed)
	if !b.stop.Load() {
		b.grams()
	}
}

// addChunk interns the value of every association of c and, the first
// time a value is seen, runs the counting pass of the substring index
// over its bytes.
func (b *builder) addChunk(c monetx.Chunk) {
	sc, text := b.sc, c.Text()
	for i := range c.Len() {
		start, end := c.Span(i)
		if vid, fresh := sc.in.Add(text, start, end); fresh {
			countGrams(sc.buckets, int32(vid), text[start:end])
		}
	}
}

// grams lays out the trigram buckets.
func (b *builder) grams() { b.idx.fillGrams(b.sc.buckets, b.values) }

// finish takes the association table — rows in (owner, path) order, a
// value id each, over values — lays out the value→rows table over it,
// waits for grams and hands over the index over store. It keeps the
// scratch for the next build unless it outgrew monetx.MaxKeptRows.
func (b *builder) finish(store *monetx.Store, owners []bat.OID, paths []pathsum.PathID, vals []valueID, values []string) *Index {
	idx := b.idx
	idx.store, idx.owners, idx.paths, idx.vals, idx.values = store, owners, paths, vals, values
	idx.fillValRows(len(values))
	idx.memo = memo.New(len(owners), memoCharge, &memoCounts)
	if b.done != nil {
		<-b.done
	}
	if b.sc.in.Reset() {
		kept.Store(b.sc)
	}
	b.sc = nil
	return idx
}

// postings returns the token index, building it on the first call: one
// sweep over the rows in their final order, so every posting list is
// ascending as appended, with each distinct value tokenised once. The
// build is not interruptible and costs about 15 ms per MB of XML.
func (idx *Index) postings() map[string][]int32 {
	idx.postOnce.Do(func() {
		toks := make([][]string, len(idx.values))
		for vid, v := range idx.values {
			toks[vid] = dedupTokens(appendTokens(nil, v))
		}
		post := make(map[string][]int32)
		for row, vid := range idx.vals {
			for _, tok := range toks[vid] {
				post[tok] = append(post[tok], int32(row))
			}
		}
		idx.post = post
		idx.postBuilds.Add(1)
	})
	return idx.post
}

// TokensBuilt reports whether a token search has built the postings.
func (idx *Index) TokensBuilt() bool { return idx.postBuilds.Load() > 0 }

// countGrams is the counting pass of the substring index for value vid,
// run on the values in id order: it adds to each bucket its trigrams
// hash to the bytes the value's entry takes there. A value is listed
// once per bucket however often it repeats a trigram: last holds the
// most recent value id listed, so it also gives the gap an entry is
// coded as.
func countGrams[T string | []byte](buckets *[gramBuckets]bucket, vid int32, v T) {
	if len(v) < gramLen {
		return
	}
	key := uint32(v[0]) | uint32(v[1])<<8
	for i := gramLen - 1; i < len(v); i++ {
		key |= uint32(v[i]) << 16
		if b := &buckets[gramBucket(key)]; b.last != vid {
			b.n += int32(bits.Len32(uint32(vid-b.last))+6) / 7
			b.last = vid
		}
		key >>= 8
	}
}

// fillGrams lays out the trigram buckets countGrams counted over values:
// a prefix sum of their sizes gives each its offset, and a second pass
// over the values writes every entry through its bucket's offset,
// replaying the gaps the counting pass saw.
func (idx *Index) fillGrams(buckets *[gramBuckets]bucket, values []string) {
	start := make([]int32, gramBuckets+1)
	for h := range buckets {
		b := &buckets[h]
		start[h+1] = start[h] + b.n
		b.last, b.n = -1, start[h]
	}
	grams := make([]byte, start[gramBuckets])
	for vid, v := range values {
		if len(v) < gramLen {
			continue
		}
		key := uint32(v[0]) | uint32(v[1])<<8
		for i := gramLen - 1; i < len(v); i++ {
			key |= uint32(v[i]) << 16
			if b := &buckets[gramBucket(key)]; b.last != int32(vid) {
				gap := uint32(int32(vid) - b.last)
				b.last = int32(vid)
				p := b.n // binary.PutUvarint, without a slice per entry
				for ; gap >= 0x80; gap >>= 7 {
					grams[p] = byte(gap) | 0x80
					p++
				}
				grams[p] = byte(gap)
				b.n = p + 1
			}
			key >>= 8
		}
	}
	idx.gramStart, idx.grams = start, grams
}

// fillValRows fills the value→rows table over the association table, by
// the same counting sort.
func (idx *Index) fillValRows(values int) {
	start := make([]int32, values+1)
	for _, v := range idx.vals {
		start[v+1]++
	}
	for v := range values {
		start[v+1] += start[v]
	}
	rows := make([]int32, len(idx.vals))
	for r, v := range idx.vals {
		rows[start[v]] = int32(r)
		start[v]++
	}
	copy(start[1:], start)
	start[0] = 0
	idx.valStart, idx.valRows = start, rows
}

// Store returns the store the index was built over.
func (idx *Index) Store() *monetx.Store { return idx.store }

// Terms returns the number of distinct tokens of the token index,
// building it on the first call.
func (idx *Index) Terms() int { return len(idx.postings()) }

// hits materialises a posting list (sorted association row ids) as
// Hits. Postings are sorted at build time, so this is the single copy
// a search result costs.
func (idx *Index) hits(rows []int32) []Hit {
	if len(rows) == 0 {
		return nil
	}
	out := make([]Hit, len(rows))
	for i, r := range rows {
		out[i] = Hit{Owner: idx.owners[r], Path: idx.paths[r], Value: idx.values[idx.vals[r]]}
	}
	return out
}

// Search returns the associations containing term as a token,
// case-insensitively (the result is ordered by owner OID). A
// single-token search is one gather pass over one pre-sorted posting
// list; a multi-token term must occur as a phrase in one association,
// located by intersecting the candidate postings smallest-first and
// verifying the phrase on the survivors.
func (idx *Index) Search(term string) []Hit {
	tok, rest, ok := firstToken(term)
	if !ok {
		return nil
	}
	if _, _, more := firstToken(rest); !more {
		// Single-token fast path: no token slice, no sort, one copy.
		return idx.hits(idx.postings()[tok])
	}
	toks := Tokenize(term)
	// Candidates must contain the leading token as a complete token
	// (the pinned phrase semantics) and every interior token too: an
	// interior token is bounded by non-alphanumerics inside the
	// phrase, so any value containing the phrase contains it as a
	// complete token. The trailing token may extend to the right
	// ("Byte" matching "Bytes"), so its posting cannot narrow.
	cand, ok := idx.intersectPostings(toks[:len(toks)-1])
	if !ok {
		return nil
	}
	needle := strings.ToLower(term)
	var out []Hit
	for _, r := range cand {
		if v := idx.values[idx.vals[r]]; strings.Contains(strings.ToLower(v), needle) {
			out = append(out, Hit{Owner: idx.owners[r], Path: idx.paths[r], Value: v})
		}
	}
	return out
}

// intersectPostings merges the posting lists of the given tokens,
// starting from the smallest. The second return is false when some
// token has no posting at all.
func (idx *Index) intersectPostings(toks []string) ([]int32, bool) {
	post := idx.postings()
	smallest := 0
	for i, tok := range toks {
		p, ok := post[tok]
		if !ok || len(p) == 0 {
			return nil, false
		}
		if len(p) < len(post[toks[smallest]]) {
			smallest = i
		}
	}
	cand := post[toks[smallest]]
	// Ping-pong two buffers through the narrowing merges: the write
	// target never aliases cand (a shared posting list, or the other
	// buffer), and a k-token query costs at most two intermediates.
	var bufs [2][]int32
	cur := 0
	for i, tok := range toks {
		if i == smallest {
			continue
		}
		bufs[cur] = bat.IntersectSorted(bufs[cur][:0], cand, post[tok])
		cand = bufs[cur]
		cur ^= 1
		if len(cand) == 0 {
			return nil, false
		}
	}
	return cand, true
}

// SearchSubstring returns the associations whose value contains sub as
// a case-sensitive substring — the semantics of the paper's
// `contains` predicate ("o & contains 'Bit'") — in (owner, path) row
// order. Each stored string is tested at most once however many
// associations carry it, and only if the trigram index admits it.
func (idx *Index) SearchSubstring(sub string) []Hit {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return idx.rowHits(&s.rows, idx.matchSubstring(s, sub))
}

// OwnersSubstring returns the distinct owners of SearchSubstring(sub)
// in ascending order — the meet's input set — without materialising a
// Hit per association. The index memoizes the answer, so every caller
// asking for sub gets the same slice: it is read-only, and its capacity
// equals its length, so an append copies instead of writing into it.
func (idx *Index) OwnersSubstring(sub string) []bat.OID {
	if owners, ok := idx.memo.Get(sub); ok {
		return owners
	}
	owners := idx.locateOwners(sub)
	idx.memo.Add(strings.Clone(sub), owners)
	return owners
}

// OwnersSubstringAny returns the ascending distinct owners of the
// associations containing any of the needles: a thesaurus-broadened
// term. One needle answers the memoized OwnersSubstring slice itself;
// more are unioned in a fresh slice, so no memoized slice is written.
func (idx *Index) OwnersSubstringAny(needles []string) []bat.OID {
	if len(needles) == 1 {
		return idx.OwnersSubstring(needles[0])
	}
	var out []bat.OID
	for _, n := range needles {
		out = append(out, idx.OwnersSubstring(n)...)
	}
	return bat.SortDedup(out)
}

// locateOwners is OwnersSubstring without the memo.
func (idx *Index) locateOwners(sub string) []bat.OID {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	n := idx.matchSubstring(s, sub)
	if n == 0 {
		return nil
	}
	// Rows ascend by (owner, path): one owner's rows are adjacent.
	out := make([]bat.OID, 0, n)
	for r := range s.rows.all {
		if o := idx.owners[r]; len(out) == 0 || out[len(out)-1] != o {
			out = append(out, o)
		}
	}
	return out[:len(out):len(out)]
}

// SearchFunc returns the associations whose value satisfies pred. The
// predicate is evaluated once per distinct stored value.
func (idx *Index) SearchFunc(pred func(string) bool) []Hit {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return idx.rowHits(&s.rows, idx.scan(s, pred))
}

// scratch is the pooled working set of a value-table search: the matched
// rows and the trigram intersection's candidates.
type scratch struct {
	rows bitset
	cand []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// bitset is a plain word-packed bit vector sized per use.
type bitset struct {
	words []uint64
}

// reset prepares the bitset to hold n cleared bits.
func (b *bitset) reset(n int) {
	need := (n + 63) / 64
	if cap(b.words) < need {
		b.words = make([]uint64, need)
		return
	}
	b.words = b.words[:need]
	clear(b.words)
}

func (b *bitset) set(i int) { b.words[i>>6] |= 1 << (i & 63) }

// all yields the set bits in ascending order.
func (b *bitset) all(yield func(int) bool) {
	for w, word := range b.words {
		for ; word != 0; word &= word - 1 {
			if !yield(w<<6 | bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// matchSubstring marks in s.rows the associations whose value contains
// sub and returns how many there are. The empty needle matches nothing.
func (idx *Index) matchSubstring(s *scratch, sub string) int {
	if len(sub) < gramLen {
		return idx.scan(s, func(v string) bool { return sub != "" && strings.Contains(v, sub) })
	}
	s.rows.reset(len(idx.owners))
	n := 0
	for _, vid := range idx.gramCandidates(s, sub) {
		if strings.Contains(idx.values[vid], sub) {
			n += idx.markValue(&s.rows, vid)
		}
	}
	return n
}

// scan marks in s.rows the associations whose value satisfies pred and
// returns how many there are.
func (idx *Index) scan(s *scratch, pred func(string) bool) int {
	s.rows.reset(len(idx.owners))
	n := 0
	for vid, v := range idx.values {
		if pred(v) {
			n += idx.markValue(&s.rows, int32(vid))
		}
	}
	return n
}

// markValue marks the rows carrying value vid and returns their count.
func (idx *Index) markValue(rows *bitset, vid int32) int {
	carriers := idx.valRows[idx.valStart[vid]:idx.valStart[vid+1]]
	for _, r := range carriers {
		rows.set(int(r))
	}
	return len(carriers)
}

// rowHits materialises the n marked rows as Hits, in row order.
func (idx *Index) rowHits(rows *bitset, n int) []Hit {
	if n == 0 {
		return nil
	}
	out := make([]Hit, 0, n)
	for r := range rows.all {
		out = append(out, Hit{Owner: idx.owners[r], Path: idx.paths[r], Value: idx.values[idx.vals[r]]})
	}
	return out
}

// gramCandidates returns the ascending ids of the values listed in each
// of the three rarest buckets the trigrams of sub (at least gramLen
// bytes) hash to. Three are enough: the verifier sees the survivors
// anyway, and a longer list costs more to merge than it would remove.
// Buckets are ranked by their size in bytes; the rarest is decoded into
// s.cand and the others are decoded as they are merged into it.
func (idx *Index) gramCandidates(s *scratch, sub string) []int32 {
	size := func(h uint32) int32 { return idx.gramStart[h+1] - idx.gramStart[h] }
	var rarest [3]uint32 // buckets, ascending by size
	n := 0
grams:
	for i := 0; i+gramLen <= len(sub); i++ {
		h := gramHash(sub[i], sub[i+1], sub[i+2])
		for _, seen := range rarest[:n] {
			if seen == h {
				continue grams
			}
		}
		switch sz := size(h); {
		case sz == 0:
			return nil
		case n < len(rarest):
			n++
		case sz >= size(rarest[n-1]):
			continue
		}
		rarest[n-1] = h
		for j := n - 1; j > 0 && size(rarest[j]) < size(rarest[j-1]); j-- {
			rarest[j], rarest[j-1] = rarest[j-1], rarest[j]
		}
	}
	s.cand = idx.gramPosting(s.cand[:0], rarest[0])
	for _, h := range rarest[1:n] {
		s.cand = idx.narrow(s.cand, h)
	}
	return s.cand
}

// gramPosting appends the ascending value ids bucket h lists to dst.
func (idx *Index) gramPosting(dst []int32, h uint32) []int32 {
	p := idx.grams[idx.gramStart[h]:idx.gramStart[h+1]]
	for i, v := 0, int32(-1); i < len(p); {
		gap, n := uvarint(p[i:])
		v += gap
		i += n
		dst = append(dst, v)
	}
	return dst
}

// narrow keeps the ids of cand (ascending) that bucket h lists too, in
// place: one merge that decodes the bucket only as far as cand reaches.
func (idx *Index) narrow(cand []int32, h uint32) []int32 {
	p := idx.grams[idx.gramStart[h]:idx.gramStart[h+1]]
	w, i, v := 0, 0, int32(-1)
	for _, c := range cand {
		for v < c {
			if i == len(p) {
				return cand[:w]
			}
			gap, n := uvarint(p[i:])
			v += gap
			i += n
		}
		if v == c {
			cand[w] = c
			w++
		}
	}
	return cand[:w]
}

// uvarint decodes the gap p starts with and returns it with its length
// in bytes. It is binary.Uvarint without the overflow checks, which the
// index's own gaps (< 2^31) cannot trip, and small enough to inline.
func uvarint(p []byte) (gap int32, n int) {
	b := p[0]
	gap = int32(b & 0x7f)
	for n = 1; b >= 0x80; n++ {
		b = p[n]
		gap |= int32(b&0x7f) << (7 * n)
	}
	return gap, n
}

// Owners extracts the distinct owner OIDs of hits, in ascending order.
func Owners(hits []Hit) []bat.OID {
	out := make([]bat.OID, len(hits))
	for i, h := range hits {
		out[i] = h.Owner
	}
	return bat.SortDedup(out)
}

// Groups partitions the distinct owner OIDs of hits by the owners'
// element path: the R_1 … R_n input relations of the general meet
// (Figure 5). OIDs within a group are in ascending order.
func (idx *Index) Groups(hits []Hit) map[pathsum.PathID][]bat.OID {
	out := make(map[pathsum.PathID][]bat.OID)
	for _, h := range hits {
		p := idx.store.PathOf(h.Owner)
		out[p] = append(out[p], h.Owner)
	}
	for p, oids := range out {
		out[p] = bat.SortDedup(oids)
	}
	return out
}
