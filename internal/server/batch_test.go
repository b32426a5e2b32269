package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ncq/internal/wire"
)

// shardedBib is a root with many records, worth splitting.
func shardedBib(records int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < records; i++ {
		fmt.Fprintf(&b, "<article><author>Author%d</author><year>%d</year></article>", i, 1990+i%10)
	}
	b.WriteString("</bib>")
	return b.String()
}

func TestPutDocSharded(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "PUT", "/v1/docs/bib?shards=4", shardedBib(16))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	info := decode[wire.Doc](t, rec)
	if info.Name != "bib" || info.Shards != 4 || info.Stats.Nodes == 0 {
		t.Errorf("info = %+v", info)
	}

	// GET reports the aggregated view under the logical name.
	rec = do(t, s, "GET", "/v1/docs/bib", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	if got := decode[wire.Doc](t, rec); got.Shards != 4 || got.Stats.Nodes != info.Stats.Nodes {
		t.Errorf("get info = %+v", got)
	}

	// The list shows one logical document.
	rec = do(t, s, "GET", "/v1/docs", "")
	list := decode[struct {
		Docs []wire.Doc `json:"docs"`
	}](t, rec)
	if len(list.Docs) != 1 || list.Docs[0].Shards != 4 {
		t.Errorf("list = %+v", list.Docs)
	}

	// Queries address the logical name and answers carry it as source.
	rec = do(t, s, "POST", "/v2/query", `{"doc":"bib","terms":["Author3","1993"],"exclude_root":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	qr := decode[wireQueryResponse](t, rec)
	if len(qr.Result.Meets) == 0 {
		t.Fatal("no meets on sharded doc")
	}
	for _, m := range qr.Result.Meets {
		if m.Source != "bib" || m.Shard < 1 {
			t.Errorf("meet = source %q shard %d", m.Source, m.Shard)
		}
	}

	// Replacing with an unsharded body collapses back to one shard.
	if rec := do(t, s, "PUT", "/v1/docs/bib", shardedBib(4)); rec.Code != http.StatusOK {
		t.Fatalf("replace: %d", rec.Code)
	}
	if got := decode[wire.Doc](t, do(t, s, "GET", "/v1/docs/bib", "")); got.Shards != 1 {
		t.Errorf("shards after unsharded replace = %d", got.Shards)
	}

	// DELETE evicts the whole logical document.
	if rec := do(t, s, "DELETE", "/v1/docs/bib", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if s.corpus.Len() != 0 {
		t.Error("sharded member survived delete")
	}
}

func TestPutDocShardedBadParam(t *testing.T) {
	s := newTestServer(t)
	for _, q := range []string{"shards=x", "shards=-1", "shards=9999"} {
		rec := do(t, s, "PUT", "/v1/docs/bib?"+q, shardedBib(4))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", q, rec.Code)
		}
	}
	// shards=0 and shards=1 are plain uploads.
	for _, q := range []string{"shards=0", "shards=1"} {
		rec := do(t, s, "PUT", "/v1/docs/bib?"+q, shardedBib(4))
		if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", q, rec.Code)
		}
		if info := decode[wire.Doc](t, rec); info.Shards != 1 {
			t.Errorf("%s: shards = %d", q, info.Shards)
		}
	}
}

func TestBatchQuery(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)

	body := `{"batch":[
		{"terms":["Bit","1999"],"exclude_root":true},
		{"doc":"cwi","query":"SELECT tag(e) FROM //year AS e"},
		{"terms":[""]},
		{"doc":"ghost","terms":["x"]},
		{"terms":["Bit","1999"],"exclude_root":true}
	]}`
	rec := do(t, s, "POST", "/v2/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d %s", rec.Code, rec.Body)
	}
	resp := decode[wireBatchResponse](t, rec)
	if len(resp.Results) != 5 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || r.Result == nil || len(r.Result.Meets) == 0 {
		t.Errorf("result 0 = %+v", r)
	}
	if r := resp.Results[1]; r.Error != "" || r.Result == nil || r.Result.Mode != "query" {
		t.Errorf("result 1 = %+v", r)
	}
	if r := resp.Results[2]; !strings.Contains(r.Error, "invalid request") {
		t.Errorf("result 2 error = %q", r.Error)
	}
	if r := resp.Results[3]; r.Status != http.StatusNotFound || !strings.Contains(r.Error, "unknown document") {
		t.Errorf("result 3 = %d %q", r.Status, r.Error)
	}
	// The duplicate of query 0 shares its result (computed once).
	if resp.Results[4].Result != resp.Results[0].Result &&
		len(resp.Results[4].Result.Meets) != len(resp.Results[0].Result.Meets) {
		t.Errorf("duplicate query diverged")
	}

	// A repeated batch is answered from the cache, per item.
	rec = do(t, s, "POST", "/v2/query", body)
	resp = decode[wireBatchResponse](t, rec)
	if !resp.Results[0].Cached || !resp.Results[1].Cached {
		t.Errorf("repeat batch not cached: %+v %+v", resp.Results[0].Cached, resp.Results[1].Cached)
	}

	// The single-query endpoint sees the same cache entries.
	rec = do(t, s, "POST", "/v2/query", `{"terms":["Bit","1999"],"exclude_root":true}`)
	if rec.Header().Get("X-NCQ-Cache") != "hit" {
		t.Error("batch results invisible to the single-query endpoint")
	}
}

func TestBatchQueryValidation(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	// The removed v1 batch body is an unknown field of the one schema.
	if rec := do(t, s, "POST", "/v2/query", `{"queries":[{"terms":["Bit"]}]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("v1 batch body: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v2/query", `{"batch":[`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed batch: %d", rec.Code)
	}
	var b strings.Builder
	b.WriteString(`{"batch":[`)
	for i := 0; i <= wire.MaxBatch; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"terms":["t%d"]}`, i)
	}
	b.WriteString(`]}`)
	if rec := do(t, s, "POST", "/v2/query", b.String()); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: %d", rec.Code)
	}
}

// TestBatchGenerationConsistency: all batch items are computed against
// one generation, and a mutation invalidates them all.
func TestBatchGenerationConsistency(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	body := `{"batch":[{"terms":["Bit"]},{"terms":["1999"]}]}`
	first := decode[wireBatchResponse](t, do(t, s, "POST", "/v2/query", body))
	if rec := do(t, s, "DELETE", "/v1/docs/library", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	second := decode[wireBatchResponse](t, do(t, s, "POST", "/v2/query", body))
	if second.Generation == first.Generation {
		t.Error("generation did not advance")
	}
	for i, r := range second.Results {
		if r.Cached {
			t.Errorf("post-mutation item %d served from stale cache", i)
		}
	}
}

// TestBatchSharded: batch queries resolve sharded documents logically.
func TestBatchSharded(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "PUT", "/v1/docs/bib?shards=3", shardedBib(12)); rec.Code != http.StatusCreated {
		t.Fatalf("put: %d %s", rec.Code, rec.Body)
	}
	var b strings.Builder
	b.WriteString(`{"batch":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"doc":"bib","terms":["Author%d","%d"],"exclude_root":true}`, i, 1990+i)
	}
	b.WriteString(`]}`)
	resp := decode[wireBatchResponse](t, do(t, s, "POST", "/v2/query", b.String()))
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
		if len(r.Result.Meets) == 0 {
			t.Errorf("item %d: no meets", i)
		}
		for _, m := range r.Result.Meets {
			if m.Source != "bib" {
				t.Errorf("item %d: source %q", i, m.Source)
			}
		}
	}
}
