package ncq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"ncq/internal/fulltext"
	"ncq/internal/meetline"
	"ncq/internal/shard"
	"ncq/internal/xmltree"
)

// ErrUnknownDoc is returned (wrapped) by Run and Results when
// Request.Doc names no registered document.
var ErrUnknownDoc = errors.New("unknown document")

// Corpus is a named collection of databases queried together. It
// implements the Section 4 application: "we may want to know whether a
// certain bibliographical item that we found in one bibliography also
// lives in another bibliography; however, we have no idea how the
// relevant information is marked up" — the meet runs per document, so
// each answer carries the result type of its own instance.
//
// A member is either a plain database (Put) or a sharded one
// (AddSharded): one large document split into subtree shards that are
// searched in parallel and merged back into one ranked answer, so
// callers always address the member by its logical name.
//
// A Corpus is safe for concurrent use: any number of readers and
// queries may run while documents are added, replaced or removed.
// Queries observe a consistent snapshot of the membership taken when
// they start; a concurrent Put or Remove affects later queries only.
type Corpus struct {
	mu      sync.RWMutex
	names   []string
	members map[string]entry
	gen     uint64
	workers int // fan-out width for corpus-wide queries; 0 = GOMAXPROCS

	// thesaurus holds the synonym classes vague requests with Expand
	// set broaden their terms through, a copy only SetThesaurus
	// replaces; nil means no expansion beyond the literal terms.
	thesaurus *fulltext.Thesaurus
}

// entry is one registered member: its fan-out units in shard order —
// exactly one for a plain member — and which of the two it is. A
// sharded member may hold a single shard and still answers with shard
// numbers, so the flag cannot be read off the count.
type entry struct {
	members []*member
	sharded bool
}

// RestoreGeneration forces the corpus generation, so a corpus rebuilt
// from a snapshot+log reports the exact pre-crash generation rather
// than one recount of the surviving members. Only the durability
// layer's recovery path should call this, after replay and before the
// corpus starts serving.
func (c *Corpus) RestoreGeneration(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = gen
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{members: make(map[string]entry)}
}

// Put registers a database under a name and reports whether an existing
// member was replaced; a replacement keeps the name's position. The
// check happens under the write lock, so concurrent Puts of the same
// name agree on which one created the entry.
func (c *Corpus) Put(name string, db *Database) (replaced bool, err error) {
	return c.Commit(name, []*Database{db}, false, nil)
}

// The thresholds by which OpenSharded picks a split policy. Constants,
// not knobs: the choice reads the size of the input and nothing else,
// so the same bytes shard the same way through every door.
const (
	splitBufferedMax  = 4 << 20 // largest known input size held whole and split by node count
	streamShardBudget = 8 << 20 // bytes per shard of a streamed split whose total size is unknown
)

// OpenSharded is the one place bytes become the databases of a corpus
// member: it parses an XML document from r and loads it as at most k
// subtree shards, in document order, shredding as it parses — no door
// builds a syntax tree. size is the length of the input in bytes —
// negative when unknown, as for a chunked upload — and alone picks how
// the shards are cut. k <= 1 yields the one database Open returns. A
// known size of at most 4 MiB is split by node count, shard.Split's
// policy: the input is parsed twice, once to weigh the root's children
// (shard.Weigh) while it is copied into memory and once, from that
// copy, through the shard.Balance of the weights into the loader, so
// what is held beside the shards is the body, never a tree of it.
// Anything else streams under shard.StreamCut, the byte-budget policy:
// a shard is cut every size/k input bytes (every 8 MiB when the size is
// unknown), so not even the body is held whole. Register the result
// with Commit, sharded when k > 1. ctx carries the caller's trace task:
// the loader's stages are regions of it.
func OpenSharded(ctx context.Context, r io.Reader, size int64, k int) ([]*Database, error) {
	var dbs []*Database
	l := loaderInto(&dbs)
	l.Trace(ctx)
	var err error
	switch {
	case k <= 1:
		err = parseInto(r, nil, l, l)
	case size >= 0 && size <= splitBufferedMax:
		body := bytes.NewBuffer(make([]byte, 0, size))
		weights, werr := shard.Weigh(io.TeeReader(r, body))
		if werr != nil {
			return nil, fmt.Errorf("ncq: %w", werr)
		}
		err = parseInto(bytes.NewReader(body.Bytes()), nil, shard.Balance(weights, k, l), l)
	default:
		budget := int64(streamShardBudget)
		if size > 0 {
			budget = size / int64(k)
		}
		err = parseInto(r, shard.StreamCut(budget, k), l, l)
	}
	if err != nil {
		return nil, err
	}
	return dbs, nil
}

// AddSharded splits doc into at most k subtree shards (see
// internal/shard: the split happens at the top-level children of the
// root, balanced by node count), loads every shard, and registers the
// group under one logical name: the tree's walk through shard.Balance
// into the loader, OpenSharded's composition, so no copy is built.
// Queries addressed to name — or to the whole corpus — fan out over the
// shards in parallel and merge the per-shard answers into one ranked
// result, so callers see a single logical document.
//
// Note that a sharded member cannot report meets at the document root:
// witnesses living in different shards never meet. Large-document
// queries exclude the root anyway (the paper's DBLP case study); with
// ExcludeRoot set, a sharded member returns exactly the answers of the
// unsharded document.
//
// AddSharded returns the shard databases it registered (whose count
// may be lower than k) and whether an existing member of that name was
// replaced. The returned slice lets the caller report on exactly this
// upload even when a concurrent registration immediately replaces it.
func (c *Corpus) AddSharded(name string, doc *xmltree.Document, k int) (dbs []*Database, replaced bool, err error) {
	if doc == nil {
		return nil, false, fmt.Errorf("ncq: corpus: nil document for %q", name)
	}
	l := loaderInto(&dbs)
	if err = shard.SplitInto(doc, k, l); err != nil {
		l.Abort()
		return nil, false, fmt.Errorf("ncq: %w", err)
	}
	if replaced, err = c.Commit(name, dbs, true, nil); err != nil {
		return nil, false, err
	}
	return dbs, replaced, nil
}

// Commit is the one membership change. It registers dbs under name —
// one plain member of exactly one database, or when sharded one member
// of len(dbs) shards — in place of a previous member or appended after
// the others; with dbs nil it evicts name, a no-op when name is absent.
// A change bumps the generation by one. existed reports whether name
// was registered before the call. The corpus keeps its own copy of dbs.
//
// persist, when not nil, runs first, under the write lock, with the
// generation the change will produce: the durability layer persists the
// change there before anyone can observe it. If persist fails, its error
// is returned and membership and generation stay as they were — a
// refused write is never served. persist must not call into the corpus.
func (c *Corpus) Commit(name string, dbs []*Database, sharded bool, persist func(gen uint64) error) (existed bool, err error) {
	e := entry{sharded: sharded}
	if dbs != nil {
		if len(dbs) == 0 || (!sharded && len(dbs) != 1) || slices.Contains(dbs, nil) {
			return false, fmt.Errorf("ncq: corpus: %d databases for %q: a plain member is one, a sharded one at least one, none nil", len(dbs), name)
		}
		for i, db := range dbs {
			m := &member{name: name, db: db}
			if sharded {
				m.shard = i + 1
			}
			m.head = meetline.AppendHead(nil, name, m.shard)
			e.members = append(e.members, m)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, existed = c.members[name]
	if dbs == nil && !existed {
		return false, nil
	}
	if persist != nil {
		if err := persist(c.gen + 1); err != nil {
			return existed, err
		}
	}
	if dbs == nil {
		delete(c.members, name)
		c.names = slices.DeleteFunc(c.names, func(n string) bool { return n == name })
	} else {
		if !existed {
			c.names = append(c.names, name)
		}
		c.members[name] = e
	}
	c.gen++
	return existed, nil
}

// Remove evicts the member registered under name — all of its shards
// for a sharded member — and reports whether it was present.
func (c *Corpus) Remove(name string) bool {
	existed, _ := c.Commit(name, nil, false, nil)
	return existed
}

// Names returns the registered logical names in insertion order.
func (c *Corpus) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Get returns the database registered under name. Sharded members have
// no single database; Get reports false for them — use Shards.
func (c *Corpus) Get(name string) (*Database, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.members[name]; ok && !e.sharded {
		return e.members[0].db, true
	}
	return nil, false
}

// Shards returns the member's databases in shard order — a single
// element for a plain member — and whether name is registered.
func (c *Corpus) Shards(name string) ([]*Database, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.members[name]
	var dbs []*Database
	for _, m := range e.members {
		dbs = append(dbs, m.db)
	}
	return dbs, ok
}

// AggregateStats sums the storage statistics of several databases —
// typically the shards of one logical member.
func AggregateStats(dbs []*Database) (st Stats) {
	for _, db := range dbs {
		s := db.Stats()
		st.Nodes += s.Nodes
		st.Paths += s.Paths
		st.Associations += s.Associations
		st.MemBytes += s.MemBytes
	}
	return st
}

// MemberStats aggregates the storage statistics of the named member
// across its shards; shards is 1 for a plain member. ok reports
// whether the name is registered.
func (c *Corpus) MemberStats(name string) (st Stats, shards int, ok bool) {
	dbs, ok := c.Shards(name)
	if !ok {
		return Stats{}, 0, false
	}
	return AggregateStats(dbs), len(dbs), true
}

// Len returns the number of registered members (a sharded member
// counts once).
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.names)
}

// Generation returns a counter that increments on every membership
// mutation (Put, AddSharded, Commit, Remove, replace). Cached query results
// keyed by the generation are implicitly invalidated by any corpus
// change.
func (c *Corpus) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// SetParallelism sets how many member databases a corpus-wide query
// processes concurrently. n <= 0 restores the default (GOMAXPROCS);
// n == 1 forces serial execution.
func (c *Corpus) SetParallelism(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.workers = n
}

// Parallelism returns the effective fan-out width of corpus-wide
// queries (GOMAXPROCS when unset).
func (c *Corpus) Parallelism() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.workers
}

// SetThesaurus installs the synonym classes that vague requests with
// Expand set broaden their terms through (nil removes them). The
// corpus keeps a frozen copy, so a later t.Add changes nothing it
// answers until t is installed again. The corpus generation is bumped
// so cached results computed against the previous classes — and
// cursors minted from them — are invalidated; installing a thesaurus is
// not a membership change, so nothing is persisted.
func (c *Corpus) SetThesaurus(t *Thesaurus) {
	var th *fulltext.Thesaurus
	if t != nil {
		th = t.t.Clone()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.thesaurus = th
	c.gen++
}

// member is one fan-out unit of a query: a plain database or a single
// shard of a sharded member, and its line head (meetline.AppendHead).
// It never changes once registered: every request shares it.
type member struct {
	name  string // the logical (registered) name
	shard int    // 1-based shard number; 0 for plain members
	db    *Database
	head  []byte
}

// resolve captures the target of a request under the read lock, so
// queries run against a consistent view without blocking writers: the
// whole membership in insertion order with each member's shards
// contiguous, or only the shards of the member named doc (an error
// wrapping ErrUnknownDoc when there is none), the generation that
// identifies the captured membership, and the thesaurus installed at
// that moment.
func (c *Corpus) resolve(doc string) (target, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := c.names
	if doc != "" {
		if _, ok := c.members[doc]; !ok {
			return target{}, fmt.Errorf("ncq: corpus: %w %q", ErrUnknownDoc, doc)
		}
		names = []string{doc}
	}
	t := target{workers: c.workers, gen: c.gen}
	for _, n := range names {
		t.members = append(t.members, c.members[n].members...)
	}
	if t.workers <= 0 {
		t.workers = runtime.GOMAXPROCS(0)
	}
	t.th = c.thesaurus
	return t, nil
}

// forEachDoc runs fn(i) for every document index with at most workers
// goroutines in flight and returns the first error (by document
// order). When ctx is cancelled, dispatch stops, in-flight workers are
// drained (no goroutine outlives the call) and the context's error is
// returned — this is how cancellation and deadlines propagate through
// every shard/member fan-out.
func forEachDoc(ctx context.Context, n, workers int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CorpusMeet is one nearest concept found in one member database.
type CorpusMeet struct {
	Source string `json:"source"`          // the member's registered (logical) name
	Shard  int    `json:"shard,omitempty"` // 1-based shard of a sharded member; 0 otherwise
	Meet
}
