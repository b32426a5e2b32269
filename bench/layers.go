package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ncq"
	"ncq/internal/admission"
	"ncq/internal/bat"
	"ncq/internal/cache"
	"ncq/internal/cluster"
	"ncq/internal/core"
	"ncq/internal/durable"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/pathexpr"
	"ncq/internal/pathsum"
	qlang "ncq/internal/query"
	"ncq/internal/server"
	"ncq/internal/shard"
	"ncq/internal/vague"
	"ncq/internal/wal"
	"ncq/internal/xmltree"
)

// tracedRequests is how many of the workload's leading steps the
// traced run executes.
const tracedRequests = 200

// perLayerMetrics is the --trace 1 contract; BENCHMARK.json repeats it.
// Every metric is reported for every workload; one that a workload does
// not exercise (cluster.* off cluster_scatter, vague.* without vague
// requests) reads 0 there.
var perLayerMetrics = []metricDef{
	{name: "xmltree.parse_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "xmltree.nodes_per_doc", unit: "count", better: "lower"},
	{name: "shard.split_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "shard.balance_ratio", unit: "ratio", better: "lower"},
	{name: "monetx.load_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "monetx.assoc_per_node", unit: "ratio", better: "lower"},
	{name: "monetx.mem_bytes_per_xml_byte", unit: "B/B", better: "lower"},
	{name: "monetx.snapshot_write_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "monetx.snapshot_read_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "monetx.snapshot_bytes_per_xml_byte", unit: "B/B", better: "lower"},
	{name: "fulltext.build_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "fulltext.terms_per_doc", unit: "count", better: "lower"},
	{name: "fulltext.locate_us_per_op", unit: "us", better: "lower"},
	{name: "fulltext.hits_per_op", unit: "count", better: "lower"},
	{name: "core.rollup_us_per_op", unit: "us", better: "lower"},
	{name: "core.inputs_per_op", unit: "count", better: "lower"},
	{name: "core.meets_per_op", unit: "count", better: "lower"},
	{name: "core.meets_per_input", unit: "ratio", better: "lower"},
	{name: "ncq.rank_merge_us_per_op", unit: "us", better: "lower"},
	{name: "ncq.first_meet_us", unit: "us", better: "lower"},
	{name: "ncq.meets_yielded_per_op", unit: "count", better: "lower"},
	{name: "ncq.yield_ratio", unit: "ratio", better: "lower"},
	{name: "ncq.canonical_us", unit: "us", better: "lower"},
	{name: "vague.select_us_per_op", unit: "us", better: "lower"},
	{name: "vague.paths_admitted_per_op", unit: "count", better: "lower"},
	{name: "query.parse_us", unit: "us", better: "lower"},
	{name: "query.eval_us_per_op", unit: "us", better: "lower"},
	{name: "cache.get_us", unit: "us", better: "lower"},
	{name: "cache.put_us", unit: "us", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "server.handler_self_us_per_op", unit: "us", better: "lower"},
	{name: "server.encode_us_per_line", unit: "us", better: "lower"},
	{name: "server.lines_per_op", unit: "count", better: "lower"},
	{name: "server.stream_bytes_per_op", unit: "B", better: "lower"},
	{name: "server.http_overhead_us", unit: "us", better: "lower"},
	{name: "admission.acquire_ns", unit: "ns", better: "lower"},
	{name: "cluster.coordinator_self_us_per_op", unit: "us", better: "lower"},
	{name: "cluster.worker_wait_us_per_op", unit: "us", better: "lower"},
	{name: "cluster.worker_skew_ratio", unit: "ratio", better: "lower"},
	{name: "cluster.relay_us_per_line", unit: "us", better: "lower"},
	{name: "cluster.fanout_per_op", unit: "count", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower"},
	{name: "durable.put_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "durable.recover_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

const mb = 1 << 20

func us(d time.Duration) float64     { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when the workload gives the layer nothing to do.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// member is one fan-out unit of the corpus — a plain document or one
// shard — loaded by the harness itself so that the traced run can call
// the layers' public functions on exactly what the corpus holds.
type member struct {
	store *monetx.Store
	index *fulltext.Index
}

// runTracedFull is the --trace 1 run at the benchmark's scale, with
// its scratch and span files inside the checkout.
func runTracedFull(ctx context.Context, name string, seed int64) (*report, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	return runTraced(ctx, name, seed, fullScale, filepath.Join(root, buildDir, "tmp"), filepath.Join(root, "bench", "out"))
}

// runTraced is the traced run: in process, one goroutine,
// SetParallelism(1), the same corpus, the workload's first
// tracedRequests steps. Scratch files go under tmpDir, the span dump
// into outDir.
func runTraced(ctx context.Context, name string, seed int64, sc scale, tmpDir, outDir string) (*report, error) {
	w, err := newWorkload(name, seed, sc)
	if err != nil {
		return nil, err
	}
	c := buildCorpus(seed, sc)
	tr := newTracer()
	lm := map[string]float64{}

	members, err := traceIngest(tr, c.docs, lm)
	if err != nil {
		return nil, err
	}
	alt, err := traceIngest(nil, []document{c.churnAlt}, map[string]float64{})
	if err != nil {
		return nil, err
	}
	qt := &queryTrace{tr: tr, w: w, c: c, lm: lm}
	qt.members[0] = members
	qt.members[1] = append(append([]member(nil), alt...), members[1:]...) // bib00 is docs[0], unsharded
	if err := qt.run(ctx); err != nil {
		return nil, err
	}
	if w.cluster() {
		if err := traceCluster(ctx, tr, w, c, lm); err != nil {
			return nil, err
		}
	}
	probeCache(w, lm)
	probeAdmission(ctx, lm)
	if err := probeQueryLanguage(members[0], lm); err != nil {
		return nil, err
	}
	if err := probeDurable(filepath.Join(tmpDir, fmt.Sprintf("durable-%d", os.Getpid())), c, lm); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}

	fmt.Printf("== %s traced: %d requests, %d disagreements with the corpus, spans in %s\n",
		name, qt.requests, qt.failed, spanFile)
	fmt.Printf("   in-process handler per op: untraced %.1f us, traced %.1f us\n", qt.untracedUS, qt.tracedUS)
	for _, d := range perLayerMetrics {
		fmt.Printf("   %-36s %14.4f %s\n", d.name, lm[d.name], d.unit)
	}
	return newReport(perLayerMetrics, lm, qt.requests, qt.failed, qt.failed == 0), nil
}

// traceIngest runs the upload path layer by layer — parse, split,
// shred, index, snapshot — over every document and returns the loaded
// members in corpus order. With a nil tracer it only loads: the
// durations, and so the metrics, read zero.
func traceIngest(tr *tracer, docs []document, lm map[string]float64) ([]member, error) {
	var members []member
	var xmlBytes, shardedBytes, snapBytes, nodes, assoc, mem, terms int
	var parse, split, load, build, snapW, snapR time.Duration
	balance := 0.0
	for i, d := range docs {
		req := -(i + 1) // ingest spans share a (negative) id per document
		root := tr.begin("ingest", 0, req)
		id := tr.begin("xmltree.parse", root, req)
		doc, err := xmltree.Parse(bytes.NewReader(d.xml))
		parse += tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", d.name, err)
		}
		xmlBytes += len(d.xml)
		nodes += doc.Len()
		parts := []*xmltree.Document{doc}
		if d.shards > 1 {
			id = tr.begin("shard.split", root, req)
			parts = shard.Split(doc, d.shards)
			split += tr.end(id)
			shardedBytes += len(d.xml)
			largest, total := 0, 0
			for _, p := range parts {
				largest, total = max(largest, p.Len()), total+p.Len()
			}
			balance = ratio(float64(largest), float64(total)/float64(len(parts)))
		}
		for _, p := range parts {
			id = tr.begin("monetx.load", root, req)
			store, err := monetx.Load(p)
			load += tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", d.name, err)
			}
			id = tr.begin("fulltext.build", root, req)
			index := fulltext.New(store)
			build += tr.end(id)
			st := store.Stats()
			assoc, mem, terms = assoc+st.Associations, mem+st.MemBytes, terms+index.Terms()
			members = append(members, member{store: store, index: index})

			var snap bytes.Buffer
			id = tr.begin("monetx.snapshot_write", root, req)
			err = store.WriteSnapshot(&snap)
			snapW += tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", d.name, err)
			}
			snapBytes += snap.Len()
			id = tr.begin("monetx.snapshot_read", root, req)
			_, err = monetx.ReadSnapshot(bytes.NewReader(snap.Bytes()))
			snapR += tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("re-read snapshot %s: %w", d.name, err)
			}
		}
		tr.end(root)
	}
	xmlMB := float64(xmlBytes) / mb
	lm["xmltree.parse_ms_per_mb"] = millis(parse) / xmlMB
	lm["xmltree.nodes_per_doc"] = float64(nodes) / float64(len(docs))
	lm["shard.split_ms_per_mb"] = ratio(millis(split), float64(shardedBytes)/mb)
	lm["shard.balance_ratio"] = balance
	lm["monetx.load_ms_per_mb"] = millis(load) / xmlMB
	lm["monetx.assoc_per_node"] = float64(assoc) / float64(nodes)
	lm["monetx.mem_bytes_per_xml_byte"] = float64(mem) / float64(xmlBytes)
	lm["monetx.snapshot_write_ms_per_mb"] = millis(snapW) / xmlMB
	lm["monetx.snapshot_read_ms_per_mb"] = millis(snapR) / xmlMB
	lm["monetx.snapshot_bytes_per_xml_byte"] = float64(snapBytes) / float64(xmlBytes)
	lm["fulltext.build_ms_per_mb"] = millis(build) / xmlMB
	lm["fulltext.terms_per_doc"] = float64(terms) / float64(len(docs))
	return members, nil
}

// queryTrace drives the workload's leading steps through an in-process
// server three times: untraced through the handler, traced (handler,
// then the same request through Corpus.ResultsWithStats, then locate
// and roll-up re-run member by member), and over a real loopback
// listener. A layer's cost is attributed by re-execution: the harness
// cannot see inside a call, so it calls the next layer down with the
// same inputs and subtracts.
type queryTrace struct {
	tr      *tracer
	w       *workload
	c       corpus
	lm      map[string]float64
	members [2][]member // by corpus state
	state   int
	round   int

	requests, failed     int
	untracedUS, tracedUS float64
}

// pass plays the workload's first n steps (cycling through the round
// if it is shorter) with the given round's bodies: a churn PUT goes to
// h, a query to fn with its step index.
func (qt *queryTrace) pass(ctx context.Context, h http.Handler, round, n int, fn func(i int, q query) error) error {
	qt.round = round
	for i := 0; i < n; i++ {
		s := qt.w.steps[i%len(qt.w.steps)]
		if s.put {
			if err := qt.churnPut(ctx, h); err != nil {
				return err
			}
			continue
		}
		if err := fn(i, qt.w.queries[s.query]); err != nil {
			return err
		}
	}
	return nil
}

// serve sends one request to an in-process handler.
func serve(ctx context.Context, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx))
	return rec
}

// churnPut replaces bib00 through the handler, as churn_rw's client
// does, and follows the corpus state.
func (qt *queryTrace) churnPut(ctx context.Context, h http.Handler) error {
	doc := qt.c.docs[0]
	if qt.state == 0 {
		doc = qt.c.churnAlt
	}
	if rec := serve(ctx, h, http.MethodPut, doc.target(), doc.xml); rec.Code != http.StatusOK {
		return fmt.Errorf("in-process PUT %s: status %d: %s", doc.name, rec.Code, rec.Body.Bytes())
	}
	qt.state = 1 - qt.state
	return nil
}

func (qt *queryTrace) run(ctx context.Context) error {
	oc, err := openCorpus(qt.c.docs, 1)
	if err != nil {
		return err
	}
	h := server.New(oc).Handler()

	// Warm the process (allocator, code, CPU caches) off the books,
	// then pass 1, untraced: what the handler costs with no span around
	// it.
	var untraced time.Duration
	n := 0
	plain := func(_ int, q query) error {
		start := time.Now()
		rec := serve(ctx, h, http.MethodPost, q.path(), q.body(qt.round))
		untraced += time.Since(start)
		n++
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %v: status %d: %s", q.terms, rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	if err := qt.pass(ctx, h, 0, 32, plain); err != nil {
		return err
	}
	untraced, n = 0, 0
	if err := qt.pass(ctx, h, 1, tracedRequests, plain); err != nil {
		return err
	}
	qt.untracedUS = us(untraced) / float64(n)

	// Pass 2, traced.
	before := cacheStats(ctx, h)
	var handlerDur []time.Duration
	var a layerSums
	err = qt.pass(ctx, h, 2, tracedRequests, func(i int, q query) error {
		d, err := qt.traceRequest(ctx, h, oc, i, q, &a)
		handlerDur = append(handlerDur, d)
		return err
	})
	if err != nil {
		return err
	}
	after := cacheStats(ctx, h)
	qt.requests = n
	qt.tracedUS = us(a.handler) / float64(n)
	ops := float64(n)
	lm := qt.lm
	lm["trace.overhead_ratio"] = qt.tracedUS / qt.untracedUS
	lm["fulltext.locate_us_per_op"] = us(a.locate) / ops
	lm["fulltext.hits_per_op"] = float64(a.hits) / ops
	lm["core.rollup_us_per_op"] = us(a.rollup) / ops
	lm["core.inputs_per_op"] = float64(a.inputs) / ops
	lm["core.meets_per_op"] = float64(a.produced) / ops
	lm["core.meets_per_input"] = ratio(float64(a.produced), float64(a.inputs))
	lm["ncq.rank_merge_us_per_op"] = us(a.results-a.locate-a.rollup-a.sel) / ops
	lm["ncq.first_meet_us"] = us(a.first) / ops
	lm["ncq.meets_yielded_per_op"] = float64(a.yielded) / ops
	lm["ncq.yield_ratio"] = ratio(float64(a.yielded), float64(a.produced))
	lm["ncq.canonical_us"] = us(a.canonical) / ops
	lm["vague.select_us_per_op"] = ratio(us(a.sel), float64(a.vagueOps))
	lm["vague.paths_admitted_per_op"] = ratio(float64(a.admitted), float64(a.vagueOps))
	lm["server.handler_self_us_per_op"] = ratio(us(a.execHandler-a.execResults), float64(a.execOps))
	lm["server.encode_us_per_line"] = ratio(us(a.execHandler-a.execResults), float64(a.execLines))
	lm["server.lines_per_op"] = float64(a.lines) / ops
	lm["server.stream_bytes_per_op"] = float64(a.bytes) / ops
	lm["cache.hit_ratio"] = ratio(float64(after.Hits-before.Hits), float64(after.Hits-before.Hits+after.Misses-before.Misses))
	lm["cache.evictions"] = float64(after.Evictions - before.Evictions)

	// Pass 3: the same steps over a real loopback listener; what the
	// network stack and net/http add to the median request.
	ts := httptest.NewServer(h)
	defer ts.Close()
	cl := newClient(ts.URL)
	defer cl.close()
	var listenerDur []time.Duration
	err = qt.pass(ctx, h, 3, tracedRequests, func(_ int, q query) error {
		rep, err := cl.do(ctx, q, q.body(qt.round), false)
		if err != nil {
			return fmt.Errorf("loopback %v: %w", q.terms, err)
		}
		listenerDur = append(listenerDur, rep.last)
		return nil
	})
	if err != nil {
		return err
	}
	lm["server.http_overhead_us"] = us(medianDur(listenerDur) - medianDur(handlerDur))
	return nil
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// layerSums accumulates the traced pass.
type layerSums struct {
	handler, results, locate, rollup, sel, first, canonical time.Duration

	// exec* cover only requests the server executed (not cache hits),
	// where handler minus results is the server layer's own time.
	execHandler, execResults time.Duration
	execOps, execLines       int

	hits, inputs, produced, yielded, lines, bytes, admitted, vagueOps int
}

// traceRequest records one request's spans and returns the handler's
// time.
func (qt *queryTrace) traceRequest(ctx context.Context, h http.Handler, oc *ncq.Corpus, reqID int, q query, a *layerSums) (time.Duration, error) {
	tr := qt.tr
	root := tr.begin("request", 0, reqID)
	defer tr.end(root)

	id := tr.begin("server.handler", root, reqID)
	rec := serve(ctx, h, http.MethodPost, q.path(), q.body(qt.round))
	handler := tr.end(id)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("in-process %v: status %d: %s", q.terms, rec.Code, rec.Body.Bytes())
	}
	lines := bytes.Count(rec.Body.Bytes(), sourceKey)
	a.handler += handler
	a.lines += lines
	a.bytes += rec.Body.Len()

	req := q.request(qt.round)
	id = tr.begin("ncq.canonical", root, reqID)
	_ = req.Canonical()
	a.canonical += tr.end(id)

	id = tr.begin("ncq.results", root, reqID)
	start := time.Now()
	seq, stats := oc.ResultsWithStats(ctx, req)
	yielded := 0
	for _, err := range seq {
		if err != nil {
			return 0, fmt.Errorf("results %v: %w", q.terms, err)
		}
		if yielded == 0 {
			a.first += time.Since(start)
		}
		yielded++
	}
	results := tr.end(id)
	a.results += results
	a.yielded += yielded
	if rec.Header().Get("X-NCQ-Cache") != "hit" {
		a.execHandler += handler
		a.execResults += results
		a.execOps++
		a.execLines += lines
	}

	produced := 0
	for _, m := range qt.members[qt.state] {
		sum := m.store.Summary()
		copt := &core.Options{Exclude: map[pathsum.PathID]bool{sum.Root(): true}, MaxDistance: q.within(qt.round)}
		if q.vague {
			id = tr.begin("vague.select", root, reqID)
			pat, err := pathexpr.Compile(vagueRestrict)
			if err != nil {
				return 0, err
			}
			admissible := vague.Select(pat, sum, 2)
			a.sel += tr.end(id)
			a.admitted += len(admissible)
			for _, pid := range sum.ElemPaths() {
				if _, ok := admissible[pid]; !ok {
					copt.Exclude[pid] = true
				}
			}
			copt.SkipExcluded = true
		}
		id = tr.begin("fulltext.locate", root, reqID)
		sets := make([][]bat.OID, 0, len(q.terms))
		for _, t := range q.terms {
			hits := m.index.SearchSubstring(t)
			a.hits += len(hits)
			sets = append(sets, fulltext.Owners(hits))
		}
		a.locate += tr.end(id)
		id = tr.begin("core.rollup", root, reqID)
		res, _, err := core.MeetMultiContext(ctx, m.store, sets, copt)
		a.rollup += tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("roll-up %v: %w", q.terms, err)
		}
		for _, s := range sets {
			a.inputs += len(s)
		}
		produced += len(res)
	}
	a.produced += produced
	if q.vague {
		a.vagueOps++
	}
	// The re-run must be the work the corpus did: same candidate count.
	if produced != stats.Total {
		qt.failed++
		fmt.Printf("   DISAGREE %v: members re-run produced %d meets, the corpus %d\n", q.terms, produced, stats.Total)
	}
	return handler, nil
}

// cacheStats reads the result cache's counters from /v1/stats.
func cacheStats(ctx context.Context, h http.Handler) cache.Stats {
	var resp struct {
		Cache cache.Stats `json:"cache"`
	}
	rec := serve(ctx, h, http.MethodGet, "/v1/stats", nil)
	_ = json.Unmarshal(rec.Body.Bytes(), &resp) // zero counters only blank two per-layer metrics
	return resp.Cache
}

// inprocCluster stands the cluster up inside this process: three
// worker handlers on loopback listeners, each behind wrap, and a
// coordinator that names them like the end-to-end run does, so the
// ring places the documents identically. It returns the coordinator's
// handler and a function closing the listeners.
func inprocCluster(wrap func(http.Handler) http.Handler) (http.Handler, func(), error) {
	var servers []*httptest.Server
	closeAll := func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	var workers []cluster.Worker
	for _, addr := range workerAddrs {
		wc := ncq.NewCorpus()
		wc.SetParallelism(1)
		ts := httptest.NewServer(wrap(server.New(wc, server.WithRole("worker")).Handler()))
		servers = append(servers, ts)
		workers = append(workers, cluster.Worker{Name: addr, URL: ts.URL})
	}
	coord, err := cluster.New(cluster.Config{Workers: workers})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return coord.Handler(), closeAll, nil
}

// traceCluster attributes a scattered request to coordinator and
// workers: every worker handler runs behind a timing middleware.
func traceCluster(ctx context.Context, tr *tracer, w *workload, c corpus, lm map[string]float64) error {
	var current atomic.Int64 // coordinator span<<32 | request id; 0 = not tracing
	h, closeAll, err := inprocCluster(func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			cur := current.Load()
			if cur == 0 {
				next.ServeHTTP(rw, r)
				return
			}
			id := tr.begin("cluster.worker", int(cur>>32), int(cur&0xffffffff))
			next.ServeHTTP(rw, r)
			tr.end(id)
		})
	})
	if err != nil {
		return err
	}
	defer closeAll()
	for _, d := range c.docs {
		if rec := serve(ctx, h, http.MethodPut, d.target(), d.xml); rec.Code != http.StatusCreated {
			return fmt.Errorf("in-process cluster PUT %s: status %d: %s", d.name, rec.Code, rec.Body.Bytes())
		}
	}
	var self, wait time.Duration
	var skew float64
	var fanout, lines, ops int
	first := len(tr.spans)
	for i := 0; i < tracedRequests; i++ {
		q := w.queries[w.steps[i%len(w.steps)].query]
		id := tr.begin("cluster.coordinator", 0, i)
		current.Store(int64(id)<<32 | int64(i))
		rec := serve(ctx, h, http.MethodPost, q.path(), q.body(0))
		current.Store(0)
		tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process cluster %v: status %d: %s", q.terms, rec.Code, rec.Body.Bytes())
		}
		lines += bytes.Count(rec.Body.Bytes(), sourceKey)
		ops++
	}
	// Attribute: a coordinator span's children are its worker spans.
	kids := map[int][]span{}
	for _, s := range tr.spans[first:] {
		if s.Name == "cluster.worker" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range tr.spans[first:] {
		if s.Name != "cluster.coordinator" {
			continue
		}
		var slowest, total time.Duration
		for _, k := range kids[s.ID] {
			slowest, total = max(slowest, k.dur()), total+k.dur()
		}
		self += s.dur() - covered(s, kids[s.ID])
		wait += slowest
		fanout += len(kids[s.ID])
		skew += ratio(float64(slowest), float64(total)/float64(len(kids[s.ID])))
	}
	n := float64(ops)
	lm["cluster.coordinator_self_us_per_op"] = us(self) / n
	lm["cluster.worker_wait_us_per_op"] = us(wait) / n
	lm["cluster.worker_skew_ratio"] = skew / n
	lm["cluster.relay_us_per_line"] = ratio(us(self), float64(lines))
	lm["cluster.fanout_per_op"] = float64(fanout) / n
	return nil
}

// probeCache times the result cache's Get and Put on the workload's
// own keys (canonical requests) with payloads of a top-10 result's
// size.
func probeCache(w *workload, lm map[string]float64) {
	const loops = 50
	lru := cache.New(64 << 20)
	payload := make([]byte, 2048)
	keys := make([]cache.Key, len(w.queries))
	for i, q := range w.queries {
		r := q.request(0)
		keys[i] = cache.Key{Gen: 1, Query: r.Canonical()}
	}
	start := time.Now()
	for l := 0; l < loops; l++ {
		for _, k := range keys {
			lru.Put(k, payload, len(payload))
		}
	}
	put := time.Since(start)
	start = time.Now()
	for l := 0; l < loops; l++ {
		for _, k := range keys {
			lru.Get(k)
		}
	}
	get := time.Since(start)
	n := float64(loops * len(keys))
	lm["cache.put_us"] = us(put) / n
	lm["cache.get_us"] = us(get) / n
}

// probeAdmission times an uncontended Acquire/release pair.
func probeAdmission(ctx context.Context, lm map[string]float64) {
	const loops = 200000
	l := admission.New(8, 0, time.Second)
	start := time.Now()
	for i := 0; i < loops; i++ {
		release, err := l.Acquire(ctx)
		if err != nil {
			break // uncontended: cannot saturate
		}
		release()
	}
	lm["admission.acquire_ns"] = float64(time.Since(start)) / loops
}

// probeQueryLanguage times the paper's SQL variant on bib00: no
// workload sends it yet, so this is a baseline only.
func probeQueryLanguage(m member, lm map[string]float64) error {
	const parses, evals = 1000, 20
	src := func(i int) string {
		return fmt.Sprintf("SELECT meet(e1, e2) FROM //cdata AS e1, //cdata AS e2 WHERE e1 CONTAINS '%s' AND e2 CONTAINS '%s'",
			lastNames[i%len(lastNames)], titleWords[i%len(titleWords)])
	}
	start := time.Now()
	for i := 0; i < parses; i++ {
		if _, err := qlang.Parse(src(i)); err != nil {
			return fmt.Errorf("query.Parse: %w", err)
		}
	}
	lm["query.parse_us"] = us(time.Since(start)) / parses
	engine := qlang.NewEngine(m.store, m.index)
	var eval time.Duration
	for i := 0; i < evals; i++ {
		q, err := qlang.Parse(src(i))
		if err != nil {
			return fmt.Errorf("query.Parse: %w", err)
		}
		start = time.Now()
		if _, err := engine.Eval(q); err != nil {
			return fmt.Errorf("query.Eval: %w", err)
		}
		eval += time.Since(start)
	}
	lm["query.eval_us_per_op"] = us(eval) / evals
	return nil
}

// probeDurable times the durability layers in a scratch directory
// with the daemon's default -fsync batch policy. The end-to-end runs
// leave durability off (fsync on this disk is noise), so nothing end
// to end moves with these yet.
func probeDurable(dir string, c corpus, lm map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const records = 2000
	log, _, err := wal.Open(filepath.Join(dir, "probe.wal"), wal.PolicyBatch)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < records; i++ {
		if err := log.Append(wal.Record{Op: wal.OpPut, Gen: uint64(i + 1), Name: "bib00", Shards: 1}); err != nil {
			log.Close()
			return err
		}
	}
	appendTime := time.Since(start)
	st := log.Stats()
	if err := log.Close(); err != nil {
		return err
	}
	lm["wal.append_us"] = us(appendTime) / records
	lm["wal.bytes_per_record"] = float64(st.Bytes) / float64(st.Appends)

	data := filepath.Join(dir, "data")
	store, err := durable.Open(data, wal.PolicyBatch, ncq.NewCorpus())
	if err != nil {
		return err
	}
	var put time.Duration
	xmlBytes := 0
	for _, d := range c.docs {
		if d.shards > 1 {
			continue
		}
		db, err := ncq.Open(bytes.NewReader(d.xml))
		if err != nil {
			store.Close()
			return err
		}
		start = time.Now()
		_, err = store.PutPlain(d.name, db)
		put += time.Since(start)
		if err != nil {
			store.Close()
			return err
		}
		xmlBytes += len(d.xml)
	}
	if err := store.Close(); err != nil {
		return err
	}
	start = time.Now()
	store, err = durable.Open(data, wal.PolicyBatch, ncq.NewCorpus())
	recoverTime := time.Since(start)
	if err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	lm["durable.put_ms_per_mb"] = millis(put) / (float64(xmlBytes) / mb)
	lm["durable.recover_ms_per_mb"] = millis(recoverTime) / (float64(xmlBytes) / mb)
	return nil
}
