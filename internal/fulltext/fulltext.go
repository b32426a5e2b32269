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
// is how every served request locates its terms, so New builds it and
// everything it rests on: all associations live in one table of
// parallel columns (owner OID, attribute path, value id) in
// (owner, path) order, string values are interned once in a shared
// value table — one 4-byte value id per association — and every byte
// trigram of a distinct value hashes into one of 2^15 buckets listing
// the value ids carrying it, each bucket packed as uvarint gaps between
// ascending ids (about one byte an entry). A needle's rarest buckets
// are intersected and strings.Contains verifies the survivors, so hash
// collisions cost time, never correctness; needles shorter than a
// trigram scan the value table.
//
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
	Value string         // the full stored string
}

// valueID indexes the shared value table: every stored string is
// interned once and referenced by id from the association columns.
type valueID uint32

// Index is an inverted index over all string associations of a store.
type Index struct {
	store  *monetx.Store
	values []string // interned distinct strings, in first-seen order

	// The association table: one row per stored string association,
	// sorted by (owner, path). Predicate scans sweep it instead of
	// re-walking the store's string relations, evaluating the
	// predicate once per distinct value.
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
func gramHash(a, b, c byte) uint32 {
	return (uint32(a) | uint32(b)<<8 | uint32(c)<<16) * 0x9E3779B1 >> (32 - gramBits)
}

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

// New builds what locate reads — value table, association table,
// substring index — by scanning every string relation in the path
// summary's catalogue. The token postings are not built here: see
// postings.
func New(store *monetx.Store) *Index {
	idx := &Index{store: store}
	sum := store.Summary()
	var pids []pathsum.PathID // the string relations, in scan order
	for _, pid := range sum.AllPaths() {
		if sum.Kind(pid) == pathsum.Attr && store.Strings(pid) != nil {
			pids = append(pids, pid)
		}
	}
	// Rows are ordered by a stable distribution on the owner: OIDs are
	// dense in 0..store.Len(), so counting the rows of every owner gives
	// each owner's first row, and placing rows there in scan order keeps
	// one owner's rows in the order scanned — ascending path id, hence
	// (owner, path) order, total because such a pair identifies at most
	// one association.
	next := make([]int32, store.Len()+2) // next[o]: the row owner o's next association takes
	n := 0
	for _, pid := range pids {
		rel := store.Strings(pid)
		n += rel.Len()
		for i := 0; i < rel.Len(); i++ {
			next[rel.Head(i)+1]++
		}
	}
	for o := 1; o < len(next); o++ {
		next[o] += next[o-1]
	}
	idx.owners = make([]bat.OID, n)
	idx.paths = make([]pathsum.PathID, n)
	idx.vals = make([]valueID, n)
	intern := make(map[string]valueID)
	for _, pid := range pids {
		rel := store.Strings(pid)
		for i := 0; i < rel.Len(); i++ {
			owner, value := rel.Head(i), rel.Tail(i)
			vid, ok := intern[value]
			if !ok {
				vid = valueID(len(idx.values))
				intern[value] = vid
				idx.values = append(idx.values, value)
			}
			row := next[owner]
			next[owner]++
			idx.owners[row], idx.paths[row], idx.vals[row] = owner, pid, vid
		}
	}
	idx.buildSubstringIndex()
	idx.memo = memo.New(n, memoCharge, &memoCounts)
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

// buildSubstringIndex fills the trigram postings and the value→rows
// table, each by a counting sort: count, prefix-sum into offsets, fill
// through the offsets (leaving each at its bucket's end), shift them
// back by one slot. A value is listed once per bucket however often it
// repeats a trigram: last holds the bucket's most recent value id, so
// it also gives the gap a bucket entry is coded as, and the counting
// pass sizes the buckets in bytes.
func (idx *Index) buildSubstringIndex() {
	start := make([]int32, gramBuckets+1)
	last := make([]int32, gramBuckets)
	eachGram := func(visit func(h, gap uint32)) {
		for i := range last {
			last[i] = -1
		}
		for vid, v := range idx.values {
			for i := 0; i+gramLen <= len(v); i++ {
				if h := gramHash(v[i], v[i+1], v[i+2]); last[h] != int32(vid) {
					visit(h, uint32(int32(vid)-last[h]))
					last[h] = int32(vid)
				}
			}
		}
	}
	eachGram(func(h, gap uint32) { start[h+1] += int32(bits.Len32(gap)+6) / 7 })
	for h := 0; h < gramBuckets; h++ {
		start[h+1] += start[h]
	}
	grams := make([]byte, start[gramBuckets])
	eachGram(func(h, gap uint32) { // binary.PutUvarint, without a slice per entry
		p := start[h]
		for ; gap >= 0x80; gap >>= 7 {
			grams[p] = byte(gap) | 0x80
			p++
		}
		grams[p] = byte(gap)
		start[h] = p + 1
	})
	copy(start[1:], start)
	start[0] = 0
	idx.gramStart, idx.grams = start, grams

	start = make([]int32, len(idx.values)+1)
	for _, v := range idx.vals {
		start[v+1]++
	}
	for v := range idx.values {
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
