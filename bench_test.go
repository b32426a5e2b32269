package ncq_test

// The benchmark suite regenerates the paper's evaluation (one bench per
// figure plus the Section 5 scaling claim) and adds ablations for the
// design choices docs/ARCHITECTURE.md calls out. cmd/ncqbench prints
// the same series as TSV tables; bench/README.md records the serving
// numbers. The suite lives in the external test package so the
// server-level benchmarks can import ncq/internal/server (which itself
// imports ncq).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"ncq"
	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/datagen"
	"ncq/internal/experiments"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/query"
	"ncq/internal/server"
	"ncq/internal/xmltree"
)

var (
	mmOnce  sync.Once
	mmSetup *experiments.Setup

	bibOnce  sync.Once
	bibSetup *experiments.Setup
)

// multimedia returns the Figure 6 workload (~70k nodes), built once.
func multimedia(b *testing.B) *experiments.Setup {
	b.Helper()
	mmOnce.Do(func() {
		s, err := experiments.LoadMultimedia(datagen.DefaultMultimediaConfig())
		if err != nil {
			panic(err)
		}
		mmSetup = s
	})
	return mmSetup
}

// dblp returns the Figure 7 workload (~90k nodes), built once.
func dblp(b *testing.B) *experiments.Setup {
	b.Helper()
	bibOnce.Do(func() {
		s, err := experiments.LoadDBLP(datagen.DefaultDBLPConfig())
		if err != nil {
			panic(err)
		}
		bibSetup = s
	})
	return bibSetup
}

// BenchmarkFig6FulltextOnly is the flat series of Figure 6: the
// full-text search whose cost dominates the combined query.
func BenchmarkFig6FulltextOnly(b *testing.B) {
	setup := multimedia(b)
	setup.Index.Terms() // the first token search builds the postings: not what this series measures
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup.Index.Search("landscape")
	}
}

// BenchmarkFig6MeetByDistance is the rising series of Figure 6: the
// pairwise meet at controlled distances 0..20. The per-op time should
// grow linearly with the distance and stay orders of magnitude below
// the full-text search.
func BenchmarkFig6MeetByDistance(b *testing.B) {
	setup := multimedia(b)
	for d := 0; d <= 20; d += 4 {
		termA, termB := datagen.ProbeTerms(d)
		hitsA := setup.Index.Search(termA)
		hitsB := setup.Index.Search(termB)
		if len(hitsA) != 1 || len(hitsB) != 1 {
			b.Fatalf("probe %d: %d/%d hits", d, len(hitsA), len(hitsB))
		}
		o1, o2 := hitsA[0].Owner, hitsB[0].Owner
		b.Run(fmt.Sprintf("distance=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Meet2(setup.Store, o1, o2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7CaseStudy is Figure 7: the meet of the "ICDE" hits with
// all year hits of a widening interval, root excluded. Time per
// operation should grow roughly linearly as the interval (and with it
// the output cardinality) grows.
func BenchmarkFig7CaseStudy(b *testing.B) {
	setup := dblp(b)
	ctx := context.Background()
	for _, low := range []int{1999, 1996, 1992, 1988, 1984} {
		hits := setup.Index.SearchSubstring("ICDE")
		for y := low; y <= 1999; y++ {
			hits = append(hits, setup.Index.SearchSubstring(fmt.Sprintf("%d", y))...)
		}
		inputs := [][]bat.OID{fulltext.Owners(hits)}
		opt := core.ExcludeRoot(setup.Store)
		var out int
		b.Run(fmt.Sprintf("yearLow=%d", low), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, _, err := core.MeetMultiContext(ctx, setup.Store, inputs, opt)
				if err != nil {
					b.Fatal(err)
				}
				out = len(results)
			}
			b.ReportMetric(float64(out), "results")
		})
	}
}

// BenchmarkMeetInputScaling isolates the Section 5 claim: meet cost is
// linear in the input cardinality.
func BenchmarkMeetInputScaling(b *testing.B) {
	setup := dblp(b)
	var yearHits []fulltext.Hit
	for y := 1984; y <= 1999; y++ {
		yearHits = append(yearHits, setup.Index.SearchSubstring(fmt.Sprintf("%d", y))...)
	}
	opt := core.ExcludeRoot(setup.Store)
	ctx := context.Background()
	for _, frac := range []int{1, 2, 4, 8} {
		n := len(yearHits) / frac
		inputs := [][]bat.OID{fulltext.Owners(yearHits[:n])}
		b.Run(fmt.Sprintf("inputs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MeetMultiContext(ctx, setup.Store, inputs, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParent compares the two execution styles of the
// set-oriented meet: per-OID parent arrays (this reproduction's fast
// path) versus pure BAT joins (the paper's in-Monet execution).
func BenchmarkAblationParent(b *testing.B) {
	setup := dblp(b)
	groups := setup.Index.Groups(setup.Index.SearchSubstring("ICDE"))
	var icde []bat.OID
	for _, g := range groups {
		if len(g) > len(icde) {
			icde = g
		}
	}
	groups = setup.Index.Groups(setup.Index.SearchSubstring("1999"))
	var year []bat.OID
	for _, g := range groups {
		if len(g) > len(year) {
			year = g
		}
	}
	b.Run("parent-array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.MeetSets(setup.Store, icde, year, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	parents := experiments.ParentRelations(setup.Store)
	b.Run("parent-bat-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.MeetSetsBAT(setup.Store, parents, icde, year, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSteering measures the value of the paper's
// path-prefix steering in meet_2 against an ancestor-set baseline that
// has no path information (Figure 3's motivation).
func BenchmarkAblationSteering(b *testing.B) {
	setup := multimedia(b)
	termA, termB := datagen.ProbeTerms(6)
	o1 := setup.Index.Search(termA)[0].Owner
	o2 := setup.Index.Search(termB)[0].Owner
	b.Run("prefix-steered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Meet2(setup.Store, o1, o2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ancestor-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.Meet2AncestorSet(setup.Store, o1, o2)
		}
	})
}

// BenchmarkSearch measures the steady-state single-token full-text
// search on the compact posting lists: a pre-sorted slice view plus
// one copy, so allocs/op stays flat however hot the term is. The
// postings are built before the timer starts: BenchmarkIndexBuild/tokens
// records that cost, and at the gate's -benchtime 3x it would read here
// as a thousand-fold regression.
func BenchmarkSearch(b *testing.B) {
	setup := dblp(b)
	setup.Index.Terms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(setup.Index.Search("ICDE")) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkLocateSubstring measures the `contains` locate step:
// owners/* is the serving path (sorted owner OIDs, no Hit per
// association), which after its first op is a hit in the index's
// needle memo — internal/fulltext's BenchmarkOwnersSubstringMiss
// measures the trigram lookup behind a miss — and hits/* is the
// unmemoized materialising path the CLI and the figure experiments
// print from.
func BenchmarkLocateSubstring(b *testing.B) {
	setup := dblp(b)
	for _, needle := range []string{"ICDE", "1999", "html"} {
		b.Run("owners/"+needle, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(setup.Index.OwnersSubstring(needle)) == 0 {
					b.Fatal("no owners")
				}
			}
		})
	}
	b.Run("hits/ICDE", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(setup.Index.SearchSubstring("ICDE")) == 0 {
				b.Fatal("no hits")
			}
		}
	})
}

// BenchmarkMeetRollup measures the warm roll-up of the general meet
// (Figure 5) on a Figure-7-sized input: the combined hits as one input
// set to core.MeetMultiContext — a lone set drains straight into the
// one preorder pass — with the pass's chain and contributions recycled
// across queries, so a steady-state query allocates O(results), not
// O(inputs).
func BenchmarkMeetRollup(b *testing.B) {
	setup := dblp(b)
	hits := setup.Index.SearchSubstring("ICDE")
	for y := 1992; y <= 1999; y++ {
		hits = append(hits, setup.Index.SearchSubstring(fmt.Sprintf("%d", y))...)
	}
	inputs := [][]bat.OID{fulltext.Owners(hits)}
	opt := core.ExcludeRoot(setup.Store)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.MeetMultiContext(ctx, setup.Store, inputs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeetMulti measures the meet on the serving entry: per-term
// owner sets straight from Index.OwnersSubstring (ascending, distinct)
// fed to core.MeetMultiContext with the root excluded, which is what
// every member of a /v2/query term request executes. unsorted feeds
// the 1999+html sets shuffled, so the price of normalising input that
// does not arrive in document order stays on record.
func BenchmarkMeetMulti(b *testing.B) {
	setup := dblp(b)
	opt := core.ExcludeRoot(setup.Store)
	ctx := context.Background()
	owners := func(terms ...string) [][]bat.OID {
		sets := make([][]bat.OID, len(terms))
		for i, t := range terms {
			sets[i] = setup.Index.OwnersSubstring(t)
		}
		return sets
	}
	run := func(name string, sets [][]bat.OID) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := core.MeetMultiContext(ctx, setup.Store, sets, opt)
				if err != nil || len(res) == 0 {
					b.Fatalf("%d meets, err = %v", len(res), err)
				}
			}
		})
	}
	run("ICDE+1999", owners("ICDE", "1999"))
	run("1999+html", owners("1999", "html"))
	shuffled := owners("1999", "html")
	rng := rand.New(rand.NewSource(1))
	for i, set := range shuffled {
		set = slices.Clone(set) // the index's memo shares the located slice with every later caller
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		shuffled[i] = set
	}
	run("unsorted", shuffled)
}

// BenchmarkBulkLoad measures the Monet transform itself (the paper
// reports bulk-load characteristics in its companion paper [19]).
func BenchmarkBulkLoad(b *testing.B) {
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monetx.Load(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures index construction, the two lifetimes
// side by side: serving is what locate reads, built by fulltext.New
// over a sealed store (its own path-major value ids and value table,
// the value→rows table, the substring index; an upload builds the same
// beside the parse, sharing the store's value ids and values instead);
// tokens adds what the first token search on a member pays once.
// resident-B/xml-B is what one finished index keeps on the heap per
// byte of the document's XML.
func BenchmarkIndexBuild(b *testing.B) {
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 40}) // BenchmarkPutDoc/plain's
	store, err := monetx.Load(doc)
	if err != nil {
		b.Fatal(err)
	}
	xmlBytes := float64(len(doc.XMLString()))
	for _, bc := range []struct {
		name  string
		build func() *fulltext.Index
	}{
		{"serving", func() *fulltext.Index { return fulltext.New(store) }},
		{"tokens", func() *fulltext.Index {
			idx := fulltext.New(store)
			if idx.Terms() == 0 {
				b.Fatal("no terms")
			}
			return idx
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.build()
			}
			b.StopTimer()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			idx := bc.build()
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/xmlBytes, "resident-B/xml-B")
			runtime.KeepAlive(idx)
		})
	}
}

// BenchmarkUploadStages times BenchmarkPutDoc/plain's DBLP member
// through the stages of an upload, each series one more than the last
// where they nest: scan is the tokenizer into a sink that keeps
// nothing; shred adds the loader, ending at the sealed store; index is
// fulltext.New over that sealed store alone; open is the whole
// OpenSharded, where the index is built beside the parse, so it takes
// less than shred plus index wherever a second core is free. Run it at
// -cpu 1 for the total CPU, which open must not raise. open also
// reports resident-B/xml-B, what one opened Database — store and index
// — keeps on the heap per byte of XML, measured as BenchmarkIndexBuild
// measures its index: OPERATIONS.md § Memory sizing quotes it.
func BenchmarkUploadStages(b *testing.B) {
	src := []byte(datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 40}).XMLString())
	var store *monetx.Store
	shred := monetx.NewLoader(func(s *monetx.Store) error { store = s; return nil })
	if err := xmltree.ParseSplit(bytes.NewReader(src), nil, shred); err != nil {
		b.Fatal(err)
	}
	open := func() ([]*ncq.Database, error) {
		return ncq.OpenSharded(context.Background(), bytes.NewReader(src), int64(len(src)), 1)
	}
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"scan", func() error { return xmltree.ParseSplit(bytes.NewReader(src), nil, nopSink{}) }},
		{"shred", func() error { return xmltree.ParseSplit(bytes.NewReader(src), nil, shred) }},
		{"index", func() error { fulltext.New(store); return nil }},
		{"open", func() error { _, err := open(); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			cpu := processCPU()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64((processCPU()-cpu).Microseconds())/1e3/float64(b.N), "cpu-ms/op")
			if bc.name != "open" {
				return
			}
			b.StopTimer()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			dbs, err := open()
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(len(src)), "resident-B/xml-B")
			runtime.KeepAlive(dbs)
		})
	}
}

// processCPU is the CPU time the process has used, on every thread:
// beside ns/op, which is wall time, it tells a stage that is faster
// from one that only spread over more cores.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// nopSink takes a parse's events and keeps nothing.
type nopSink struct{}

func (nopSink) Start(string, []xmltree.Attr) error { return nil }
func (nopSink) Text([]byte) error                  { return nil }
func (nopSink) End() error                         { return nil }

// BenchmarkBATJoin measures the core relational primitive.
func BenchmarkBATJoin(b *testing.B) {
	setup := dblp(b)
	// Join every record's year edge with the record edge relation.
	sum := setup.Store.Summary()
	recPath, ok := sum.Lookup([]string{"dblp", "inproceedings"})
	if !ok {
		b.Fatal("no record path")
	}
	yearPath, ok := sum.Lookup([]string{"dblp", "inproceedings", "year"})
	if !ok {
		b.Fatal("no year path")
	}
	parents := experiments.ParentRelations(setup.Store)
	years, recs := parents[yearPath], parents[recPath] // year -> record, record -> root
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Join(years, recs)
	}
}

// BenchmarkQueryEndToEnd runs the full pipeline: parse, bind, filter,
// meet, format.
func BenchmarkQueryEndToEnd(b *testing.B) {
	setup := dblp(b)
	engine := query.NewEngine(setup.Store, setup.Index)
	const q = `SELECT meet(e1, e2; EXCLUDE /dblp)
		FROM //booktitle/cdata AS e1, //year/cdata AS e2
		WHERE e1 CONTAINS 'ICDE' AND e2 CONTAINS '1999'`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := engine.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(ans.Rows) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkQueryProjection runs a projecting query: every year's
// value, each a look-up of its text in the cdata string relation.
func BenchmarkQueryProjection(b *testing.B) {
	setup := dblp(b)
	engine := query.NewEngine(setup.Store, setup.Index)
	const q = `SELECT value(e) FROM //inproceedings/year AS e`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := engine.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(ans.Rows) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkSnapshotSave measures persisting the store.
func BenchmarkSnapshotSave(b *testing.B) {
	setup := dblp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		if err := setup.Store.WriteSnapshot(&sink); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(sink))
	}
}

// BenchmarkSnapshotLoad measures reopening from a snapshot — the fast
// path that skips XML parsing and shredding.
func BenchmarkSnapshotLoad(b *testing.B) {
	setup := dblp(b)
	var buf bytes.Buffer
	if err := setup.Store.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monetx.ReadSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkExplosionBaseline contrasts the minimal set-oriented meet
// with the naive all-pairs baseline on one Figure 7 work unit.
func BenchmarkExplosionBaseline(b *testing.B) {
	setup := dblp(b)
	groups := setup.Index.Groups(setup.Index.SearchSubstring("ICDE"))
	var icde []bat.OID
	for _, g := range groups {
		if len(g) > len(icde) {
			icde = g
		}
	}
	groups = setup.Index.Groups(setup.Index.SearchSubstring("1999"))
	var year []bat.OID
	for _, g := range groups {
		if len(g) > len(year) {
			year = g
		}
	}
	b.Run("minimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.MeetSets(setup.Store, icde, year, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := experiments.MeetPairsBaseline(setup.Store, icde, year); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchCorpus builds a corpus of shards — distinct synthetic DBLP
// fragments — as the ncqd server would hold after preloading.
func benchCorpus(b *testing.B, shards int) *ncq.Corpus {
	b.Helper()
	c := ncq.NewCorpus()
	for i := 0; i < shards; i++ {
		doc := datagen.DBLP(datagen.DBLPConfig{
			Seed: int64(i + 1), YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 10,
		})
		db, err := ncq.OpenString(doc.XMLString())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Put(fmt.Sprintf("shard-%d", i), db); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkCorpusMeetParallel measures the corpus-wide meet fan-out:
// the same query over the same membership, executed serially versus
// with the bounded worker pool. On a multi-core host the parallel
// series should approach a shards/cores speed-up; on one core the two
// series coincide (the pool then only adds scheduling noise).
func BenchmarkCorpusMeetParallel(b *testing.B) {
	c := benchCorpus(b, 8)
	widths := []int{1, runtime.GOMAXPROCS(0), 8}
	seen := map[int]bool{}
	for _, w := range widths {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c.SetParallelism(w)
			for i := 0; i < b.N; i++ {
				res, err := c.Run(context.Background(), ncq.Request{Terms: []string{"ICDE", "1999"}, Options: ncq.ExcludeRoot()})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Meets) == 0 {
					b.Fatal("no meets")
				}
			}
		})
	}
	c.SetParallelism(0)
}

// BenchmarkServerQuery measures the full HTTP query path of ncqd for an
// unlimited answer set: JSON decode, cache lookup, corpus meet, JSON
// encode (BenchmarkQueryV2 is the same endpoint asked for a top-K
// page). The cold series disables the cache so every request
// recomputes; the cached series must be served entirely from the LRU
// (verified per request).
func BenchmarkServerQuery(b *testing.B) {
	corpus := benchCorpus(b, 4)
	body := []byte(`{"terms":["ICDE","1999"],"exclude_root":true}`)
	post := func(b *testing.B, h http.Handler) string {
		req := httptest.NewRequest("POST", "/v2/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Header().Get("X-NCQ-Cache")
	}
	b.Run("cold", func(b *testing.B) {
		h := server.New(corpus, server.WithCacheBytes(0)).Handler()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if post(b, h) != "miss" {
				b.Fatal("cold request hit the cache")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		h := server.New(corpus).Handler()
		post(b, h) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if post(b, h) != "hit" {
				b.Fatal("cached request missed")
			}
		}
	})
}

// BenchmarkPutDoc measures the write path through the same handler a
// client reaches: PUT /v1/docs/{name} replacing a document on an
// in-memory node. plain is the serving benchmark's ordinary upload (one
// DBLP document, pubs=40); the sharded series upload its multimedia
// document with ?shards=4 — buffered sends Content-Length and is split
// by node count, chunked does not and is split as the parse streams;
// snapshot-body uploads plain's document as a binary snapshot. B/op and
// allocs/op of plain are what the serving benchmark's churn_rw workload
// pays per cycle.
func BenchmarkPutDoc(b *testing.B) {
	dblpXML := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 40}).XMLString()
	mediaXML := datagen.Multimedia(datagen.MultimediaConfig{Seed: 1, Items: 4000, MaxProbeDistance: 20}).XMLString()
	db, err := ncq.OpenString(dblpXML)
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := db.SaveSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name, path, contentType string
		body                    []byte
		chunked                 bool
		shards                  int
	}{
		{name: "plain", path: "/v1/docs/doc", body: []byte(dblpXML), shards: 1},
		{name: "sharded-buffered", path: "/v1/docs/doc?shards=4", body: []byte(mediaXML), shards: 4},
		{name: "sharded-chunked", path: "/v1/docs/doc?shards=4", body: []byte(mediaXML), chunked: true, shards: 1},
		{name: "snapshot-body", path: "/v1/docs/doc", contentType: server.SnapshotContentType, body: snap.Bytes(), shards: 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := server.New(nil)
			h := srv.Handler()
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("PUT", bc.path, bytes.NewReader(bc.body))
				if bc.chunked {
					req.ContentLength = -1
				}
				if bc.contentType != "" {
					req.Header.Set("Content-Type", bc.contentType)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			if dbs, _ := srv.Corpus().Shards("doc"); len(dbs) != bc.shards {
				b.Fatalf("document has %d shards, want %d", len(dbs), bc.shards)
			}
		})
	}
}

// BenchmarkVagueQuery measures the vague-constraints serving path —
// relaxation of a misspelled restrict pattern against every member's
// path summary plus blended re-ranking — through the same HTTP surface
// as BenchmarkServerQuery. The cold series bypasses the result cache,
// so every request runs on every member — reading the relaxation from
// the member's plan memo, which compiled it on the first request; the
// cached series pins that an active vague spec is an ordinary cache
// citizen (keyed by its canonical encoding).
func BenchmarkVagueQuery(b *testing.B) {
	corpus := benchCorpus(b, 4)
	body := []byte(`{"terms":["ICDE","1999"],"restrict":["/dblp/inprocedings"],` +
		`"exclude_root":true,"vague":{"max_slack":2}}`)
	post := func(b *testing.B, h http.Handler) string {
		req := httptest.NewRequest("POST", "/v2/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"meets"`)) {
			b.Fatalf("no meets: %s", rec.Body)
		}
		return rec.Header().Get("X-NCQ-Cache")
	}
	b.Run("cold", func(b *testing.B) {
		h := server.New(corpus, server.WithCacheBytes(0)).Handler()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if post(b, h) != "miss" {
				b.Fatal("cold request hit the cache")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		h := server.New(corpus).Handler()
		post(b, h) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if post(b, h) != "hit" {
				b.Fatal("cached request missed")
			}
		}
	})
}

// BenchmarkShardedQuery measures the document-sharding fan-out: the
// same nearest-concept query against one large DBLP document loaded
// unsharded (shards=1) versus split into subtree shards searched in
// parallel. The full-text scan dominates the query (Figure 6), so on a
// multi-core host the sharded series should approach a cores-wide
// speed-up; on one core the series coincide.
func BenchmarkShardedQuery(b *testing.B) {
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1992, YearTo: 1999, PubsPerVenueYear: 40})
	widths := []int{1, runtime.GOMAXPROCS(0), 8}
	seen := map[int]bool{}
	for _, k := range widths {
		if seen[k] {
			continue
		}
		seen[k] = true
		c := ncq.NewCorpus()
		if _, _, err := c.AddSharded("dblp", doc, k); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := c.Run(context.Background(), ncq.Request{Doc: "dblp", Terms: []string{"ICDE", "1999"}, Options: ncq.ExcludeRoot()})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Meets) == 0 {
					b.Fatal("no meets")
				}
			}
		})
	}
}

// BenchmarkBatchQuery measures the "batch" form's amortisation win:
// the same 16 distinct queries issued as 16 single requests versus one
// batch request. The cold series recomputes every query (the batch
// adds pool fan-out across queries); the cached series is pure
// protocol overhead (one HTTP exchange and JSON envelope versus 16).
func BenchmarkBatchQuery(b *testing.B) {
	const nq = 16
	corpus := benchCorpus(b, 4)
	singles := make([][]byte, nq)
	var batch bytes.Buffer
	batch.WriteString(`{"batch":[`)
	for i := 0; i < nq; i++ {
		q := fmt.Sprintf(`{"terms":["ICDE","%d"],"exclude_root":true}`, 1995+i%5)
		singles[i] = []byte(q)
		if i > 0 {
			batch.WriteString(",")
		}
		batch.WriteString(q)
	}
	batch.WriteString(`]}`)

	post := func(b *testing.B, h http.Handler, body []byte) {
		req := httptest.NewRequest("POST", "/v2/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, mode := range []struct {
		name string
		opts []server.Option
		warm bool
	}{
		{"cold", []server.Option{server.WithCacheBytes(0)}, false},
		{"cached", nil, true},
	} {
		h := server.New(corpus, mode.opts...).Handler()
		if mode.warm {
			post(b, h, batch.Bytes())
		}
		b.Run("individual/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, body := range singles {
					post(b, h, body)
				}
			}
		})
		b.Run("batch/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				post(b, h, batch.Bytes())
			}
		})
	}
}

// BenchmarkRunStream measures the unified execution API over a corpus:
// the full ranked stream versus a pushed-down limit that materialises
// only the head of the answer set.
func BenchmarkRunStream(b *testing.B) {
	c := benchCorpus(b, 4)
	ctx := context.Background()
	req := ncq.Request{Terms: []string{"ICDE", "1999"}, Options: ncq.ExcludeRoot()}
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, err := range c.Results(ctx, req) {
				if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n == 0 {
				b.Fatal("no meets")
			}
		}
	})
	limited := req
	limited.Limit = 5
	b.Run("limit=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, err := range c.Results(ctx, limited) {
				if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n != 5 {
				b.Fatalf("streamed %d meets", n)
			}
		}
	})
}

// BenchmarkQueryV2 measures the HTTP endpoint on a top-K page: JSON
// decode, canonical cache key, corpus run with pushed-down limit, JSON
// encode.
// The cold series disables the cache; the cached series must be served
// entirely from the LRU (verified per request).
func BenchmarkQueryV2(b *testing.B) {
	corpus := benchCorpus(b, 4)
	body := []byte(`{"terms":["ICDE","1999"],"exclude_root":true,"limit":8}`)
	post := func(b *testing.B, h http.Handler) string {
		req := httptest.NewRequest("POST", "/v2/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Header().Get("X-NCQ-Cache")
	}
	b.Run("cold", func(b *testing.B) {
		h := server.New(corpus, server.WithCacheBytes(0)).Handler()
		for i := 0; i < b.N; i++ {
			if post(b, h) != "miss" {
				b.Fatal("cold request hit the cache")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		h := server.New(corpus).Handler()
		post(b, h) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if post(b, h) != "hit" {
				b.Fatal("cached request missed")
			}
		}
	})
}

// BenchmarkStreamFirstMeet measures time-to-first-result on a
// multi-member corpus with a cold cache: the consumer takes the first
// globally ranked meet off the Results sequence and abandons the rest.
// Under the k-way merge this is bounded by the slowest member's first
// answer (compute + O(n) counting sort), with no global sort and no full
// drain — the latency the streaming surfaces put in front of users.
func BenchmarkStreamFirstMeet(b *testing.B) {
	c := benchCorpus(b, 8)
	ctx := context.Background()
	req := ncq.Request{Terms: []string{"ICDE", "1999"}, Options: ncq.ExcludeRoot()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := false
		for _, err := range c.Results(ctx, req) {
			if err != nil {
				b.Fatal(err)
			}
			got = true
			break
		}
		if !got {
			b.Fatal("no meets")
		}
	}
}

// BenchmarkResultsDrain measures the full incremental path end to end:
// fan-out, per-member lazy ranking, k-way merge, and a complete drain
// of the sequence — the streaming equivalent of an unlimited Run.
func BenchmarkResultsDrain(b *testing.B) {
	c := benchCorpus(b, 4)
	ctx := context.Background()
	req := ncq.Request{Terms: []string{"ICDE", "1999"}, Options: ncq.ExcludeRoot()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, err := range c.Results(ctx, req) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n == 0 {
			b.Fatal("no meets")
		}
	}
}

// BenchmarkPageChain walks an unlimited answer the way a client pages
// through it: limit 10, each page a new request resumed from the last
// one's cursor, until no cursor comes back. Every page runs locate and
// roll-up again and skips the pages before it, so this is what a cache
// below the page would have to beat.
func BenchmarkPageChain(b *testing.B) {
	c := benchCorpus(b, 8)
	ctx := context.Background()
	req := ncq.Request{Terms: []string{"1999", "html"}, Options: ncq.ExcludeRoot(), Limit: 10}
	pages := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Cursor = ""
		for {
			res, err := c.Run(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			pages++
			if res.NextCursor == "" {
				break
			}
			req.Cursor = res.NextCursor
		}
	}
	if pages < 20*b.N {
		b.Fatalf("%d pages in %d chains: the answer is too short to page", pages, b.N)
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

// The DBLP generator's last names and title words (internal/datagen
// keeps its vocabulary unexported): the terms of BenchmarkCorpusTopK.
var (
	topkLastNames = []string{
		"Schmidt", "Kersten", "Windhouwer", "Waas", "Boncz", "Struzik",
		"Meyer", "Fischer", "Weber", "Wagner", "Becker", "Schulz", "Hoffmann",
		"Koch", "Bauer", "Richter", "Klein", "Wolf", "Schroeder", "Neumann",
		"Schwarz", "Zimmermann", "Braun", "Krueger", "Hofmann", "Hartmann",
		"Lange", "Schmitt", "Werner", "Krause", "Lehmann", "Maier", "Bit",
		"Byte",
	}
	topkTitleWords = []string{
		"Efficient", "Scalable", "Adaptive", "Incremental", "Distributed",
		"Parallel", "Declarative", "Semistructured", "Relational", "Temporal",
		"Spatial", "Approximate", "Optimal", "Robust", "Dynamic",
		"Query", "Storage", "Indexing", "Retrieval", "Processing", "Mining",
		"Integration", "Optimization", "Evaluation", "Compression", "Caching",
		"Replication", "Recovery", "Clustering", "Partitioning",
		"Databases", "Documents", "Streams", "Trees", "Graphs", "Views",
		"Schemas", "Transactions", "Workloads", "Architectures", "Engines",
		"Warehouses", "Repositories", "Hierarchies", "Collections",
	}
)

// BenchmarkCorpusTopK is a corpus-wide top-10 request at the serving
// benchmark's working-set size: eight DBLP members of 1984-1999 with
// 40 publications per venue and year, and distinct [last name, title
// word] requests, the root excluded, each with its own within, every
// fifth one vague on a misspelled record path. Eight stores of this
// size do not fit in cache together, so the roll-up pays for its loads
// as a server does; BenchmarkMeetMulti's one hot store cannot show it.
func BenchmarkCorpusTopK(b *testing.B) {
	c := ncq.NewCorpus()
	for i := 1; i <= 8; i++ {
		doc := datagen.DBLP(datagen.DBLPConfig{Seed: int64(i), YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 40})
		db, err := ncq.OpenString(doc.XMLString())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Put(fmt.Sprintf("bib%02d", i), db); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	pairs := rand.New(rand.NewSource(1)).Perm(len(topkLastNames) * len(topkTitleWords))
	meets := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		req := ncq.Request{
			Terms:   []string{topkLastNames[p/len(topkTitleWords)], topkTitleWords[p%len(topkTitleWords)]},
			Options: ncq.ExcludeRoot().Within(100 + i),
			Limit:   10,
		}
		if i%5 == 4 {
			req.Options.Restrict("/dblp/inprocedings")
			req.Vague = &ncq.Vague{MaxSlack: 2}
		}
		res, err := c.Run(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		meets += len(res.Meets)
	}
	if meets == 0 {
		b.Fatal("no meets")
	}
}

// BenchmarkStreamHTTP measures a long streamed answer where its client
// reads it: POST /v2/query?stream=1 over a real loopback listener, one
// keep-alive connection, the NDJSON body read to EOF. The benchmarks
// above stop at a recorder or at the iterator, which is blind to what
// the wire adds per line — chunks, flushes, syscalls.
func BenchmarkStreamHTTP(b *testing.B) {
	ts := httptest.NewServer(server.New(benchCorpus(b, 8)).Handler())
	defer ts.Close()
	body := []byte(`{"terms":["199","html"],"exclude_root":true}`)
	buf := make([]byte, 32<<10)
	lines := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v2/query?stream=1", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for err == nil {
			var read int
			read, err = resp.Body.Read(buf)
			n += bytes.Count(buf[:read], []byte{'\n'})
		}
		resp.Body.Close()
		if err != io.EOF || resp.StatusCode != http.StatusOK || n < 1500 {
			b.Fatalf("status %d, %d lines, %v", resp.StatusCode, n, err)
		}
		lines += n
	}
	b.ReportMetric(float64(lines)/float64(b.N), "lines/op")
}

// BenchmarkQueryParseOnly isolates the query compiler.
func BenchmarkQueryParseOnly(b *testing.B) {
	const q = `SELECT meet(e1, e2; EXCLUDE /dblp, WITHIN 6)
		FROM //booktitle/cdata AS e1, //year/cdata AS e2
		WHERE e1 CONTAINS 'ICDE' AND e2 CONTAINS '1999'`
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
