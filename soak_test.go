package ncq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncq"
	"ncq/internal/datagen"
	"ncq/internal/server"
	"ncq/internal/xmltree"
)

// TestSoakLargeBibliography pushes a Figure 7-scale document (~90k
// nodes) through every layer: generate, serialise, parse, shred,
// validate, query, snapshot, reload, re-verify. Skipped with -short.
func TestSoakLargeBibliography(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := datagen.DefaultDBLPConfig() // 75 pubs per venue and year
	doc := datagen.DBLP(cfg)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	var xml strings.Builder
	if err := doc.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	db, err := ncq.OpenString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Nodes < 80000 {
		t.Fatalf("unexpectedly small soak document: %+v", st)
	}

	// Reassembly is lossless at scale.
	var back strings.Builder
	if err := db.WriteXML(&back, false); err != nil {
		t.Fatal(err)
	}
	doc2, err := xmltree.ParseString(back.String())
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(doc, doc2) {
		t.Fatal("document changed across load/serialise at scale")
	}

	// Every year's query returns exactly the expected cardinality.
	ctx := context.Background()
	for year := 1984; year <= 1999; year++ {
		res, err := db.Run(ctx, ncq.Request{Terms: []string{"ICDE", fmt.Sprintf("%d", year)}, Options: ncq.ExcludeRoot()})
		if err != nil {
			t.Fatal(err)
		}
		meets := res.Meets
		want := cfg.PubsPerVenueYear
		if year == datagen.ICDEYearMissing {
			want = 0
		}
		// The two planted false-positive page ranges may add one hit
		// for their target year.
		extra := 0
		if year == 1993 || year == 1996 {
			extra = 1
		}
		if len(meets) != want+extra {
			t.Errorf("ICDE %d: %d results, want %d", year, len(meets), want+extra)
		}
	}

	// Snapshot round trip preserves behaviour at scale.
	var snap bytes.Buffer
	if err := db.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	db2, err := ncq.OpenSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	req := ncq.Request{Terms: []string{"ICDE", "1999"}, Options: ncq.ExcludeRoot()}
	a, err := db.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Meets) != len(b.Meets) {
		t.Fatalf("snapshot changed answers: %d vs %d", len(a.Meets), len(b.Meets))
	}
}

// TestSoakServingChurn drives a tightly admission-limited server with
// mixed mutation/query/stream churn from many parallel clients and
// asserts the production serving posture: overload degrades into fast
// 429s carrying Retry-After — never 5xx, never unbounded queueing —
// and the node keeps answering the admitted work correctly
// throughout. Skipped with -short.
func TestSoakServingChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 40})
	var xml strings.Builder
	if err := doc.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	corpus := ncq.NewCorpus()
	db, err := ncq.OpenString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.Add("dblp", db); err != nil {
		t.Fatal(err)
	}

	// One execution slot, no queue, no grace wait: any two requests
	// in flight at once means one is shed. Under 16 parallel clients
	// that is certain, which is the point.
	srv := server.New(corpus, server.WithAdmission(1, 0, 0))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		clients = 16
		iters   = 25
	)
	var (
		ok200, shed429, gone410 atomic.Int64
		unexpected              sync.Map // status -> body sample
		slowShed                atomic.Int64
	)
	tally := func(resp *http.Response, start time.Time) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300:
			ok200.Add(1)
		case resp.StatusCode == http.StatusTooManyRequests:
			shed429.Add(1)
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			// Shedding must be immediate — that is what prevents
			// latency collapse. The bound is generous for CI noise; the
			// limiter is configured with no grace wait at all.
			if time.Since(start) > 5*time.Second {
				slowShed.Add(1)
			}
		case resp.StatusCode == http.StatusGone:
			gone410.Add(1) // a cursor raced a mutation; legitimate
		default:
			unexpected.Store(resp.StatusCode, fmt.Sprintf("status %d", resp.StatusCode))
		}
	}
	post := func(cl *http.Client, path, body string) (*http.Response, error) {
		return cl.Post(ts.URL+path, "application/json", strings.NewReader(body))
	}
	var wg sync.WaitGroup

	// The saturation lever is a slow client: admission grants the slot
	// when the route dispatches — before the body has arrived — so a
	// trickled request body occupies the single execution slot for the
	// duration. That is exactly the degenerate consumer an operator
	// configures admission control against, and unlike raw request
	// volume it saturates deterministically on any machine, including
	// single-CPU CI runners where sub-millisecond handlers never
	// overlap on their own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := &http.Client{Timeout: 30 * time.Second}
		for i := 0; i < 10; i++ {
			pr, pw := io.Pipe()
			go func() {
				io.WriteString(pw, `{"terms":["ICDE",`)
				time.Sleep(40 * time.Millisecond)
				io.WriteString(pw, `"1999"],"exclude_root":true,"limit":3}`)
				pw.Close()
			}()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/query", pr)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			start := time.Now()
			resp, err := cl.Do(req)
			if err != nil {
				t.Errorf("saturator iter %d: %v", i, err)
				return
			}
			tally(resp, start)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < iters; i++ {
				var (
					resp *http.Response
					err  error
				)
				year := 1984 + (c*7+i)%16
				start := time.Now()
				switch i % 5 {
				case 0: // mutation: purges the cache, keeps queries cold
					req, rerr := http.NewRequest(http.MethodPut,
						fmt.Sprintf("%s/v1/docs/churn-%d", ts.URL, c),
						strings.NewReader(fmt.Sprintf("<bib><book><author>Churn%d</author><year>%d</year></book></bib>", c, year)))
					if rerr != nil {
						t.Error(rerr)
						return
					}
					resp, err = cl.Do(req)
				case 1: // NDJSON stream across the corpus
					resp, err = post(cl, "/v2/query?stream=1",
						fmt.Sprintf(`{"terms":["ICDE","%d"],"exclude_root":true,"limit":5}`, year))
				default: // plain queries
					resp, err = post(cl, "/v2/query",
						fmt.Sprintf(`{"terms":["ICDE","%d"],"exclude_root":true,"limit":5}`, year))
				}
				if err != nil {
					t.Errorf("client %d iter %d: %v", c, i, err)
					return
				}
				tally(resp, start)
			}
		}(c)
	}
	wg.Wait()

	unexpected.Range(func(k, v any) bool {
		t.Errorf("unexpected response under churn: %v", v)
		return true
	})
	if slowShed.Load() > 0 {
		t.Errorf("%d rejections took > 5s; shedding must be immediate", slowShed.Load())
	}
	if ok200.Load() == 0 {
		t.Error("no request succeeded under churn")
	}
	if shed429.Load() == 0 {
		t.Error("no request was shed; the churn never saturated admission — tighten the limits")
	}
	t.Logf("churn: %d ok, %d shed (429), %d gone (410)", ok200.Load(), shed429.Load(), gone410.Load())

	// The node ends responsive and truthful: a fresh query answers, and
	// the stats it reports agree with what the clients saw.
	resp, err := http.Post(ts.URL+"/v2/query", "application/json",
		strings.NewReader(`{"terms":["ICDE","1999"],"exclude_root":true,"limit":3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-churn query: %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Admission struct {
			Rejected uint64 `json:"rejected"`
			InFlight int    `json:"in_flight"`
			Queued   int    `json:"queued"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if int64(stats.Admission.Rejected) != shed429.Load() {
		t.Errorf("stats report %d rejections, clients saw %d", stats.Admission.Rejected, shed429.Load())
	}
	if stats.Admission.InFlight != 0 || stats.Admission.Queued != 0 {
		t.Errorf("limiter not drained after churn: %+v", stats.Admission)
	}
}
