package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ncq"
	"ncq/internal/server"
	"ncq/internal/wire"
)

// startWorker runs a plain ncqd node (the worker role is just a
// label) on an httptest listener.
func startWorker(tb testing.TB, name string) (*server.Server, Worker) {
	tb.Helper()
	srv := server.New(nil, server.WithNodeName(name), server.WithRole("worker"))
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return srv, Worker{Name: name, URL: ts.URL}
}

func startCoordinator(tb testing.TB, cfg Config) (*Coordinator, *httptest.Server) {
	tb.Helper()
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	tb.Cleanup(ts.Close)
	return c, ts
}

// docXML builds one deterministic pseudo-random bibliography document.
func docXML(r *rand.Rand, records int) string {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < records; i++ {
		fmt.Fprintf(&sb,
			"<article><author>Author%d</author><year>%d</year><title>Topic%d study</title></article>",
			r.Intn(30), 1990+r.Intn(12), r.Intn(8))
	}
	sb.WriteString("</bib>")
	return sb.String()
}

// addDoc loads xml straight into a worker's corpus, bypassing routing
// — for tests that control placement themselves.
func addDoc(tb testing.TB, srv *server.Server, name, xml string) {
	tb.Helper()
	db, err := ncq.Open(strings.NewReader(xml))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.Corpus().Put(name, db); err != nil {
		tb.Fatal(err)
	}
}

func httpDo(tb testing.TB, method, url, body string) (int, []byte) {
	tb.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, raw
}

// envelope covers both the single-node and the coordinator /v2/query
// response shapes.
type envelope struct {
	Cached       bool              `json:"cached"`
	Generation   uint64            `json:"generation"`
	Truncated    bool              `json:"truncated"`
	NextCursor   string            `json:"next_cursor"`
	Incomplete   bool              `json:"incomplete"`
	WorkerErrors map[string]string `json:"worker_errors"`
	Result       json.RawMessage   `json:"result"`
}

func postQuery(tb testing.TB, baseURL, body string) (int, envelope, []byte) {
	tb.Helper()
	status, raw := httpDo(tb, "POST", baseURL+"/v2/query", body)
	var env envelope
	if status == http.StatusOK {
		if err := json.Unmarshal(raw, &env); err != nil {
			tb.Fatalf("decode %q: %v", raw, err)
		}
	}
	return status, env, raw
}

func TestParseWorkers(t *testing.T) {
	wks, err := ParseWorkers("db1:7171, http://db2:7171")
	if err != nil {
		t.Fatal(err)
	}
	if len(wks) != 2 || wks[0].Name != "db1:7171" || wks[0].URL != "http://db1:7171" ||
		wks[1].Name != "db2:7171" || wks[1].URL != "http://db2:7171" {
		t.Fatalf("ParseWorkers = %+v", wks)
	}
	for _, bad := range []string{"", "a:1,,b:2", "a:1,a:1"} {
		if _, err := ParseWorkers(bad); err == nil {
			t.Errorf("ParseWorkers(%q) succeeded", bad)
		}
	}
}

// TestRingPlacement pins the consistent-hashing contract: placement is
// deterministic and order-independent, reasonably balanced, and
// removing a worker moves only the names that worker owned.
func TestRingPlacement(t *testing.T) {
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("doc-%d", i)
	}
	r1 := NewRing([]string{"a", "b", "c"})
	r2 := NewRing([]string{"c", "a", "b"})
	counts := map[string]int{}
	for _, n := range names {
		if r1.Owner(n) != r2.Owner(n) {
			t.Fatalf("placement depends on worker order for %q", n)
		}
		counts[r1.Owner(n)]++
	}
	for _, w := range []string{"a", "b", "c"} {
		if counts[w] < len(names)/10 {
			t.Errorf("worker %s owns only %d of %d names", w, counts[w], len(names))
		}
	}
	shrunk := NewRing([]string{"a", "b"})
	for _, n := range names {
		if owner := r1.Owner(n); owner != "c" && shrunk.Owner(n) != owner {
			t.Fatalf("removing c moved %q from %s to %s", n, owner, shrunk.Owner(n))
		}
	}
}

// TestDistributedEqualsSingleNode is the cluster's ground truth: a
// random corpus split across three workers by the ring must answer
// byte-identically to one node holding every document — including
// each cursor page and the 410 a mutation forces between pages.
func TestDistributedEqualsSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := map[string]string{}
	for i := 0; i < 9; i++ {
		docs[fmt.Sprintf("doc%d", i)] = docXML(rng, 4+rng.Intn(10))
	}

	single := server.New(nil)
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	var workers []Worker
	var srvs []*server.Server
	for i := 1; i <= 3; i++ {
		srv, w := startWorker(t, fmt.Sprintf("w%d", i))
		srvs, workers = append(srvs, srv), append(workers, w)
	}
	coord, coordTS := startCoordinator(t, Config{Workers: workers})

	for name, xml := range docs {
		if status, body := httpDo(t, "PUT", singleTS.URL+"/v1/docs/"+name, xml); status != http.StatusCreated {
			t.Fatalf("single PUT %s: %d %s", name, status, body)
		}
		if status, body := httpDo(t, "PUT", coordTS.URL+"/v1/docs/"+name, xml); status != http.StatusCreated {
			t.Fatalf("cluster PUT %s: %d %s", name, status, body)
		}
	}
	for i, srv := range srvs {
		if srv.Corpus().Len() == 0 {
			t.Fatalf("worker %d holds no documents; placement degenerate", i+1)
		}
	}
	// Every document must live on exactly the worker the ring names.
	for name := range docs {
		owner := coord.Owner(name)
		for i, srv := range srvs {
			if _, has := srv.Corpus().Shards(name); has != (workers[i].Name == owner.Name) {
				t.Fatalf("doc %s: on worker %s (has=%t), ring owner %s", name, workers[i].Name, has, owner.Name)
			}
		}
	}

	queries := []string{
		`{"query":"SELECT meet(a, y; EXCLUDE /bib, WITHIN 4) FROM //author/cdata AS a, //year/cdata AS y WHERE a CONTAINS 'Author1' AND y CONTAINS '199'"}`,
		`{"terms":["Author1","199"],"exclude_root":true}`,
		`{"terms":["Topic3"],"exclude_root":true,"nearest":true}`,
		`{"doc":"doc3","terms":["Author","nosuchterm"],"exclude_root":true}`,
		`{"terms":["nosuchterm"]}`,
	}
	for _, q := range queries {
		sStatus, sEnv, sRaw := postQuery(t, singleTS.URL, q)
		cStatus, cEnv, cRaw := postQuery(t, coordTS.URL, q)
		if sStatus != http.StatusOK || cStatus != http.StatusOK {
			t.Fatalf("query %s: single %d %s, cluster %d %s", q, sStatus, sRaw, cStatus, cRaw)
		}
		if string(sEnv.Result) != string(cEnv.Result) {
			t.Errorf("query %s:\nsingle  %s\ncluster %s", q, sEnv.Result, cEnv.Result)
		}
		if strings.Contains(q, `"query"`) && !strings.Contains(string(sEnv.Result), `"mode":"query","meets":[{"source":"doc`) {
			t.Errorf("query %s: degenerate answer %s", q, sEnv.Result)
		}
	}

	// Cursor pagination: every page byte-identical, same page count.
	base := `{"terms":["Author1","199"],"exclude_root":true,"limit":4`
	sCursor, cCursor, pages := "", "", 0
	var firstClusterCursor string
	for {
		sq, cq := base+"}", base+"}"
		if sCursor != "" {
			sq = fmt.Sprintf(`%s,"cursor":%q}`, base, sCursor)
			cq = fmt.Sprintf(`%s,"cursor":%q}`, base, cCursor)
		}
		sStatus, sEnv, sRaw := postQuery(t, singleTS.URL, sq)
		cStatus, cEnv, cRaw := postQuery(t, coordTS.URL, cq)
		if sStatus != http.StatusOK || cStatus != http.StatusOK {
			t.Fatalf("page %d: single %d %s, cluster %d %s", pages, sStatus, sRaw, cStatus, cRaw)
		}
		if string(sEnv.Result) != string(cEnv.Result) {
			t.Fatalf("page %d differs:\nsingle  %s\ncluster %s", pages, sEnv.Result, cEnv.Result)
		}
		if sEnv.Truncated != cEnv.Truncated {
			t.Fatalf("page %d: truncated single=%t cluster=%t", pages, sEnv.Truncated, cEnv.Truncated)
		}
		if pages == 0 && cEnv.NextCursor != "" {
			firstClusterCursor = cEnv.NextCursor
		}
		pages++
		if !sEnv.Truncated {
			break
		}
		sCursor, cCursor = sEnv.NextCursor, cEnv.NextCursor
		if pages > 50 {
			t.Fatal("pagination did not terminate")
		}
	}
	if pages < 2 {
		t.Fatalf("workload too small: %d page(s)", pages)
	}

	// Streaming: the coordinator's merged NDJSON equals the single
	// node's, meet line for meet line.
	sMeets := streamMeets(t, singleTS.URL, `{"terms":["Author1","199"],"exclude_root":true}`)
	cMeets := streamMeets(t, coordTS.URL, `{"terms":["Author1","199"],"exclude_root":true}`)
	if len(sMeets) == 0 || len(sMeets) != len(cMeets) {
		t.Fatalf("streamed %d meets single, %d cluster", len(sMeets), len(cMeets))
	}
	for i := range sMeets {
		if sMeets[i] != cMeets[i] {
			t.Fatalf("streamed meet %d differs: %s vs %s", i, sMeets[i], cMeets[i])
		}
	}

	// A mutation between pages re-ranks the answer set on both
	// topologies: the pre-mutation cursor must fail with 410 Gone.
	extra := docXML(rng, 5)
	if status, body := httpDo(t, "PUT", coordTS.URL+"/v1/docs/late", extra); status != http.StatusCreated {
		t.Fatalf("cluster PUT late: %d %s", status, body)
	}
	if status, _ := httpDo(t, "PUT", singleTS.URL+"/v1/docs/late", extra); status != http.StatusCreated {
		t.Fatal("single PUT late failed")
	}
	staleQ := fmt.Sprintf(`%s,"cursor":%q}`, base, firstClusterCursor)
	if status, _, raw := postQuery(t, coordTS.URL, staleQ); status != http.StatusGone {
		t.Fatalf("stale cluster cursor: %d %s", status, raw)
	}
}

// streamMeets drains a /v2/query?stream=1 response into its meet
// lines (as compacted JSON strings) and checks the trailer arrived.
func streamMeets(tb testing.TB, baseURL, body string) []string {
	tb.Helper()
	resp, err := http.Post(baseURL+"/v2/query?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		tb.Fatalf("stream: %d %s", resp.StatusCode, raw)
	}
	var meets []string
	sawTrailer := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), wire.MaxLine)
	for sc.Scan() {
		var line struct {
			Meet    json.RawMessage `json:"meet"`
			Trailer bool            `json:"trailer"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			tb.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			tb.Fatalf("error line: %s", line.Error)
		case line.Trailer:
			sawTrailer = true
		case line.Meet != nil:
			meets = append(meets, string(line.Meet))
		}
	}
	if !sawTrailer {
		tb.Fatal("stream ended without a trailer")
	}
	return meets
}

// startFaultyWorker serves the streaming protocol far enough to be
// admitted to the merge — 200, header line — then kills the
// connection: a worker dying mid-stream.
func startFaultyWorker(tb testing.TB, name string) Worker {
	tb.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/healthz":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"status":"ok","node":%q,"generation":1,"docs":1}`, name)
		case r.URL.Path == "/v2/query":
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, `{"header":true,"node":%q,"generation":1,"total":3,"unmatched":0}`+"\n", name)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		default:
			http.NotFound(w, r)
		}
	}))
	tb.Cleanup(ts.Close)
	return Worker{Name: name, URL: ts.URL}
}

// TestPartialResults pins the failure semantics: a worker dying
// mid-stream fails the query with 502 and per-worker detail by
// default, while allow_partial degrades to the surviving workers'
// exact merged ranking marked incomplete — with no resume cursor,
// since a partial page chain could silently skip answers.
func TestPartialResults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w1Srv, w1 := startWorker(t, "w1")
	w2Srv, w2 := startWorker(t, "w2")
	addDoc(t, w1Srv, "alpha", docXML(rng, 8))
	addDoc(t, w2Srv, "beta", docXML(rng, 8))
	faulty := startFaultyWorker(t, "faulty")

	// Reference: the two healthy workers alone.
	_, healthyTS := startCoordinator(t, Config{Workers: []Worker{w1, w2}})
	_, mixedTS := startCoordinator(t, Config{Workers: []Worker{w1, w2, faulty}})

	q := `{"terms":["Author","199"],"exclude_root":true}`
	_, want, _ := postQuery(t, healthyTS.URL, q)

	status, _, raw := postQuery(t, mixedTS.URL, q)
	if status != http.StatusBadGateway {
		t.Fatalf("strict mode: status %d, want 502 (%s)", status, raw)
	}
	if !strings.Contains(string(raw), "faulty") {
		t.Errorf("strict error lacks worker detail: %s", raw)
	}

	partialQ := `{"terms":["Author","199"],"exclude_root":true,"allow_partial":true}`
	status, env, raw := postQuery(t, mixedTS.URL, partialQ)
	if status != http.StatusOK {
		t.Fatalf("allow_partial: status %d (%s)", status, raw)
	}
	if !env.Incomplete {
		t.Error("allow_partial response not marked incomplete")
	}
	if env.WorkerErrors["faulty"] == "" {
		t.Errorf("missing per-worker error detail: %v", env.WorkerErrors)
	}
	if env.NextCursor != "" {
		t.Error("partial result minted a resume cursor")
	}
	if string(env.Result) != string(want.Result) {
		t.Errorf("partial result is not the survivors' exact merge:\ngot  %s\nwant %s", env.Result, want.Result)
	}

	// The streaming form reports the same degradation in its trailer.
	resp, err := http.Post(mixedTS.URL+"/v2/query?stream=1", "application/json", strings.NewReader(partialQ))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawIncomplete bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Trailer      bool              `json:"trailer"`
			Incomplete   bool              `json:"incomplete"`
			WorkerErrors map[string]string `json:"worker_errors"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Trailer {
			sawIncomplete = line.Incomplete && line.WorkerErrors["faulty"] != ""
		}
	}
	if !sawIncomplete {
		t.Error("streaming trailer did not carry incomplete + worker_errors")
	}
}

// TestCoordinatorFirstYieldBeforeWorkerDrains instruments the NDJSON
// decode path: the coordinator's first globally ranked result must be
// produced while every worker's stream is still open — before any
// worker's trailer has been decoded — which pins that the merge
// consumes the streams incrementally instead of buffering them.
func TestCoordinatorFirstYieldBeforeWorkerDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w1Srv, w1 := startWorker(t, "w1")
	w2Srv, w2 := startWorker(t, "w2")
	addDoc(t, w1Srv, "alpha", docXML(rng, 20))
	addDoc(t, w2Srv, "beta", docXML(rng, 20))
	coord, _ := startCoordinator(t, Config{Workers: []Worker{w1, w2}})

	var mu sync.Mutex
	decoded := map[string][]string{} // worker -> line kinds, in decode order
	testLineDecode = func(worker, kind string) {
		mu.Lock()
		decoded[worker] = append(decoded[worker], kind)
		mu.Unlock()
	}
	defer func() { testLineDecode = nil }()

	req := &ncq.Request{Terms: []string{"Author", "199"}, Options: ncq.ExcludeRoot()}
	g, err := coord.scatterQuery(context.Background(), req, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	trailers := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, kinds := range decoded {
			for _, k := range kinds {
				if k == "trailer" {
					n++
				}
			}
		}
		return n
	}
	yields := 0
	for _, err := range ncq.MergeMeets(context.Background(), g.sources, answerKey, 0, 0) {
		if err != nil {
			t.Fatal(err)
		}
		if yields == 0 {
			if n := trailers(); n != 0 {
				t.Fatalf("first merged yield after %d worker stream(s) fully drained", n)
			}
			mu.Lock()
			for _, w := range []string{"w1", "w2"} {
				if len(decoded[w]) == 0 || decoded[w][0] != "header" {
					t.Errorf("worker %s: decoded %v before first yield, want header first", w, decoded[w])
				}
			}
			mu.Unlock()
		}
		yields++
	}
	if yields < 4 {
		t.Fatalf("workload too small: %d yields", yields)
	}
	if trailers() != 2 {
		t.Errorf("full drain decoded %d trailers, want 2", trailers())
	}
}

// TestCoordinatorCache pins the generation-vector cache: a repeated
// page is a hit, and a routed mutation advances the vector so the
// next query misses instead of serving the stale ranking.
func TestCoordinatorCache(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, w1 := startWorker(t, "w1")
	_, w2 := startWorker(t, "w2")
	_, coordTS := startCoordinator(t, Config{Workers: []Worker{w1, w2}, CacheBytes: 1 << 20})

	if status, body := httpDo(t, "PUT", coordTS.URL+"/v1/docs/seed", docXML(rng, 8)); status != http.StatusCreated {
		t.Fatalf("PUT seed: %d %s", status, body)
	}
	q := `{"terms":["Author","199"],"exclude_root":true}`
	_, first, _ := postQuery(t, coordTS.URL, q)
	if first.Cached {
		t.Error("first query served from cache")
	}
	_, second, _ := postQuery(t, coordTS.URL, q)
	if !second.Cached {
		t.Error("repeated query missed the cache")
	}
	if status, body := httpDo(t, "PUT", coordTS.URL+"/v1/docs/more", docXML(rng, 4)); status != http.StatusCreated {
		t.Fatalf("PUT more: %d %s", status, body)
	}
	_, third, _ := postQuery(t, coordTS.URL, q)
	if third.Cached {
		t.Error("query after mutation served the stale cached ranking")
	}
	if third.Generation == second.Generation {
		t.Error("mutation did not advance the generation vector")
	}
}

// TestCoordinatorDocScopedCache pins the one cache rule on a doc-scoped
// query over several workers: its answer is stamped with the hash of
// the whole generation vector — what the front end looks up under — so
// a repeat is a hit although only the owner was asked, and, as on a
// node, a mutation anywhere stales the cursor.
func TestCoordinatorDocScopedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	_, w1 := startWorker(t, "w1")
	_, w2 := startWorker(t, "w2")
	coord, coordTS := startCoordinator(t, Config{Workers: []Worker{w1, w2}, CacheBytes: 1 << 20})
	var here, elsewhere string
	for i := 0; elsewhere == ""; i++ {
		name := fmt.Sprintf("doc%d", i)
		if status, body := httpDo(t, "PUT", coordTS.URL+"/v1/docs/"+name, docXML(rng, 8)); status != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, status, body)
		}
		switch {
		case here == "":
			here = name
		case coord.Owner(name) != coord.Owner(here):
			elsewhere = name
		}
	}
	q := fmt.Sprintf(`{"doc":%q,"terms":["Author","199"],"exclude_root":true,"limit":1`, here)
	_, first, _ := postQuery(t, coordTS.URL, q+"}")
	_, second, _ := postQuery(t, coordTS.URL, q+"}")
	if first.Cached || !second.Cached || first.NextCursor == "" {
		t.Fatalf("first cached=%t, repeat cached=%t, cursor %q; want a miss, a hit and a cursor", first.Cached, second.Cached, first.NextCursor)
	}
	if status, body := httpDo(t, "PUT", coordTS.URL+"/v1/docs/"+elsewhere, docXML(rng, 3)); status != http.StatusOK {
		t.Fatalf("replace %s: %d %s", elsewhere, status, body)
	}
	if status, _, raw := postQuery(t, coordTS.URL, fmt.Sprintf(`%s,"cursor":%q}`, q, first.NextCursor)); status != http.StatusGone {
		t.Errorf("cursor held across a mutation on another worker: %d %s, want 410", status, raw)
	}
}

// TestCoordinatorRequestErrors pins the coordinator-side error
// mapping: a worker's refusal of query text it cannot parse is relayed
// as the 400 it is, garbage cursors are 400, and a query-language
// request the workers accept is answered like any other.
func TestCoordinatorRequestErrors(t *testing.T) {
	_, w1 := startWorker(t, "w1")
	_, coordTS := startCoordinator(t, Config{Workers: []Worker{w1}})
	if status, _ := httpDo(t, "POST", coordTS.URL+"/v2/query", `{"query":"SELECT e1 FROM //author AS e1"}`); status != http.StatusOK {
		t.Errorf("query-language request: %d, want 200", status)
	}
	if status, body := httpDo(t, "POST", coordTS.URL+"/v2/query", `{"query":"SELECT e1 FROM"}`); status != http.StatusBadRequest || !strings.Contains(string(body), "worker w1") {
		t.Errorf("malformed query-language request: %d %s, want the worker's 400", status, body)
	}
	if status, _ := httpDo(t, "POST", coordTS.URL+"/v2/query", `{"terms":["x"],"cursor":"garbage"}`); status != http.StatusBadRequest {
		t.Errorf("garbage cursor: %d, want 400", status)
	}
	if status, _ := httpDo(t, "POST", coordTS.URL+"/v2/query", `{}`); status != http.StatusBadRequest {
		t.Errorf("empty request: %d, want 400", status)
	}
}

// TestInvalidPatternRefused pins that a term request whose exclude or
// restrict pattern does not compile is a 400 wherever it lands: on a
// node with no documents exactly as on one with some — where the
// message names the pattern, not a member — and on a coordinator before
// it scatters, so its worker never sees the request. Plain and streamed
// alike.
func TestInvalidPatternRefused(t *testing.T) {
	_, empty := startWorker(t, "empty")
	loaded, node := startWorker(t, "loaded")
	addDoc(t, loaded, "d", `<bib><book><author>Bit</author><year>1999</year></book></bib>`)
	wk, attempts := fakeWorker(t, "w1", http.StatusInternalServerError, nil, `{"error":"boom"}`)
	_, coordTS := startCoordinator(t, Config{Workers: []Worker{wk}})
	for _, body := range []string{
		`{"terms":["Bit"],"restrict":["[[bad"]}`,
		`{"terms":["Bit"],"exclude_root":true,"exclude":["//a*"]}`,
		`{"terms":["Bit"],"restrict":["/bib"," "],"vague":{"max_slack":1}}`,
	} {
		for role, url := range map[string]string{"empty node": empty.URL, "node": node.URL, "coordinator": coordTS.URL} {
			for _, route := range []string{"/v2/query", "/v2/query?stream=1"} {
				status, raw := httpDo(t, "POST", url+route, body)
				if status != http.StatusBadRequest || !strings.Contains(string(raw), "pattern") || strings.Contains(string(raw), "corpus") {
					t.Errorf("%s %s %s: %d %s, want a 400 naming the pattern", role, route, body, status, raw)
				}
			}
		}
	}
	if n := attempts.Load(); n != 0 {
		t.Errorf("the coordinator scattered %d invalid requests", n)
	}
}

// TestClusterEndpoints covers the remaining surface: the merged
// document listing, the live health poll and the stats roll-up.
func TestClusterEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, w1 := startWorker(t, "w1")
	_, w2 := startWorker(t, "w2")
	coord, coordTS := startCoordinator(t, Config{Workers: []Worker{w1, w2}, NodeName: "front"})
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("doc%d", i)
		if status, body := httpDo(t, "PUT", coordTS.URL+"/v1/docs/"+name, docXML(rng, 3)); status != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, status, body)
		}
	}

	status, raw := httpDo(t, "GET", coordTS.URL+"/v1/docs", "")
	var listing struct {
		Docs []wire.Doc `json:"docs"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &listing) != nil {
		t.Fatalf("GET /v1/docs: %d %s", status, raw)
	}
	if len(listing.Docs) != 4 {
		t.Fatalf("listing has %d docs, want 4: %s", len(listing.Docs), raw)
	}
	for _, d := range listing.Docs {
		if d.Worker != coord.Owner(d.Name).Name {
			t.Errorf("doc %s listed on %s, ring owner %s", d.Name, d.Worker, coord.Owner(d.Name).Name)
		}
	}

	status, raw = httpDo(t, "GET", coordTS.URL+"/v1/healthz", "")
	var health struct {
		Status  string         `json:"status"`
		Node    string         `json:"node"`
		Role    string         `json:"role"`
		Workers []workerHealth `json:"workers"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &health) != nil {
		t.Fatalf("GET /v1/healthz: %d %s", status, raw)
	}
	if health.Status != "ok" || health.Node != "front" || health.Role != "coordinator" || len(health.Workers) != 2 {
		t.Errorf("healthz = %s", raw)
	}

	// A GET for a document routes to its owner and relays the answer.
	status, raw = httpDo(t, "GET", coordTS.URL+"/v1/docs/doc1", "")
	if status != http.StatusOK || !strings.Contains(string(raw), `"name":"doc1"`) {
		t.Errorf("GET doc1: %d %s", status, raw)
	}
	if status, _ := httpDo(t, "DELETE", coordTS.URL+"/v1/docs/doc1", ""); status != http.StatusNoContent {
		t.Errorf("DELETE doc1: %d", status)
	}
	if status, _ := httpDo(t, "GET", coordTS.URL+"/v1/docs/doc1", ""); status != http.StatusNotFound {
		t.Errorf("GET deleted doc1: %d, want 404", status)
	}

	status, raw = httpDo(t, "GET", coordTS.URL+"/v1/stats", "")
	var stats struct {
		Role    string `json:"role"`
		Workers int    `json:"workers"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &stats) != nil ||
		stats.Role != "coordinator" || stats.Workers != 2 {
		t.Errorf("GET /v1/stats: %d %s", status, raw)
	}
}

// TestStatsFrontCountersOneSpelling holds both roles to one spelling of
// the front end's counters: a coordinator's /v1/stats and a node's carry
// every key of server.FrontStats, and each decodes into it with the
// traffic it served (a worker also counts the coordinator's scatters).
func TestStatsFrontCountersOneSpelling(t *testing.T) {
	srv, w := startWorker(t, "w1")
	addDoc(t, srv, "doc", docXML(rand.New(rand.NewSource(3)), 4))
	_, coordTS := startCoordinator(t, Config{Workers: []Worker{w}})
	const q = `{"terms":["Author1","199"],"exclude_root":true}`
	for _, base := range []string{coordTS.URL, w.URL} {
		if status, _, raw := postQuery(t, base, q); status != http.StatusOK {
			t.Fatalf("%s: %d %s", base, status, raw)
		}
		if status, _, raw := postQuery(t, base, `{"batch":[`+q+`]}`); status != http.StatusOK {
			t.Fatalf("%s batch: %d %s", base, status, raw)
		}
	}
	zero, err := json.Marshal(server.FrontStats{})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(zero, &keys); err != nil || len(keys) != 5 {
		t.Fatalf("server.FrontStats spells %s", zero)
	}
	for _, base := range []string{coordTS.URL, w.URL} {
		status, raw := httpDo(t, "GET", base+"/v1/stats", "")
		var got map[string]json.RawMessage
		if status != http.StatusOK || json.Unmarshal(raw, &got) != nil {
			t.Fatalf("GET %s/v1/stats: %d %s", base, status, raw)
		}
		for k := range keys {
			if _, ok := got[k]; !ok {
				t.Errorf("%s/v1/stats has no %q: %s", base, k, raw)
			}
		}
		var fs server.FrontStats
		if err := json.Unmarshal(raw, &fs); err != nil || fs.Queries < 2 || fs.Batches != 1 || fs.Cache.Misses == 0 {
			t.Errorf("%s/v1/stats decodes to %+v (%v): %s", base, fs, err, raw)
		}
	}
}

// BenchmarkCoordinatorScatterGather measures one scatter-gathered
// page over three workers: stream opens, header reads, k-way merge
// and result encoding, with the cache disabled so every iteration
// pays the full distributed path.
func BenchmarkCoordinatorScatterGather(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var workers []Worker
	for i := 1; i <= 3; i++ {
		srv, w := startWorker(b, fmt.Sprintf("w%d", i))
		for d := 0; d < 3; d++ {
			addDoc(b, srv, fmt.Sprintf("w%d-doc%d", i, d), docXML(rng, 10))
		}
		workers = append(workers, w)
	}
	coord, err := New(Config{Workers: workers, CacheBytes: 0})
	if err != nil {
		b.Fatal(err)
	}
	const q = `{"terms":["Author1","199"],"exclude_root":true,"limit":10}`
	h := coord.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/query", strings.NewReader(q)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-NCQ-Cache") != "miss" {
			b.Fatalf("iteration answered %d, cache %q: %s", rec.Code, rec.Header().Get("X-NCQ-Cache"), rec.Body)
		}
	}
}

// BenchmarkCoordinatorStream measures one unlimited streamed answer
// over three workers: stream opens, header reads, the k-way merge and
// the relay of every worker line to the client, with the tail and scan
// buffers recycled between iterations.
func BenchmarkCoordinatorStream(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var workers []Worker
	for i := 1; i <= 3; i++ {
		srv, w := startWorker(b, fmt.Sprintf("w%d", i))
		for d := 0; d < 3; d++ {
			addDoc(b, srv, fmt.Sprintf("w%d-doc%d", i, d), docXML(rng, 40))
		}
		workers = append(workers, w)
	}
	coord, err := New(Config{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	const q = `{"terms":["Author","199"],"exclude_root":true}`
	h := coord.Handler()
	lines := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/query?stream=1", strings.NewReader(q)))
		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK || !strings.Contains(string(body[max(0, len(body)-200):]), `"trailer":true`) {
			b.Fatalf("iteration answered %d: %s", rec.Code, body[max(0, len(body)-200):])
		}
		lines += strings.Count(string(body), "\n")
	}
	b.ReportMetric(float64(lines)/float64(b.N), "lines/op")
}
