package server

// Durability-path handler tests: snapshot-body PUTs (content
// negotiation), mutations routed through a durable.Store, and the
// restart contract — a reopened data directory serves the same answers
// at the same generation. The fault-injected variants live in
// crash_test.go behind the ncqfail build tag.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/durable"
	"ncq/internal/wal"
	"ncq/internal/wire"
)

// doHdr is do with request headers, for content-negotiated uploads.
func doHdr(t *testing.T, s *Server, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func snapshotOf(t *testing.T, xml string) string {
	t.Helper()
	db, err := ncq.Open(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func openDurableServer(t *testing.T, dir string) (*Server, *durable.Store) {
	t.Helper()
	corpus := ncq.NewCorpus()
	store, err := durable.Open(dir, wal.PolicyAlways, corpus)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return New(corpus, WithDurability(store)), store
}

func TestPutDocSnapshotBody(t *testing.T) {
	s := newTestServer(t)
	snap := snapshotOf(t, bibArticle)
	hdr := map[string]string{"Content-Type": SnapshotContentType}

	rec := doHdr(t, s, "PUT", "/v1/docs/cwi", snap, hdr)
	if rec.Code != http.StatusCreated {
		t.Fatalf("snapshot PUT: %d %s", rec.Code, rec.Body)
	}
	info := decode[wire.Doc](t, rec)
	if info.Shards != 1 || info.Stats.Nodes == 0 {
		t.Errorf("snapshot PUT info = %+v", info)
	}

	// The loaded document answers exactly like its XML-parsed twin.
	xmlSrv := newTestServer(t)
	do(t, xmlSrv, "PUT", "/v1/docs/cwi", bibArticle)
	q := `{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true}`
	got := answerOf(t, do(t, s, "POST", "/v2/query", q))
	want := answerOf(t, do(t, xmlSrv, "POST", "/v2/query", q))
	if got != want {
		t.Errorf("snapshot-loaded answers differ:\n%s\nvs\n%s", got, want)
	}

	// ?shards is meaningless for a snapshot body.
	if rec := doHdr(t, s, "PUT", "/v1/docs/cwi?shards=2", snap, hdr); rec.Code != http.StatusBadRequest {
		t.Errorf("sharded snapshot PUT: %d", rec.Code)
	}
	// A corrupt snapshot is a client error, not a server one.
	if rec := doHdr(t, s, "PUT", "/v1/docs/bad", snap[:len(snap)/2], hdr); rec.Code != http.StatusBadRequest {
		t.Errorf("truncated snapshot PUT: %d %s", rec.Code, rec.Body)
	}
}

func TestDurableServerRestart(t *testing.T) {
	dir := t.TempDir()
	s, store := openDurableServer(t, dir)

	if rec := do(t, s, "PUT", "/v1/docs/cwi", bibArticle); rec.Code != http.StatusCreated {
		t.Fatalf("PUT cwi: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "PUT", "/v1/docs/personal?shards=2", bibEntry); rec.Code != http.StatusCreated {
		t.Fatalf("PUT personal: %d %s", rec.Code, rec.Body)
	}
	info := decode[wire.Doc](t, do(t, s, "GET", "/v1/docs/personal", ""))
	if info.Shards < 1 {
		t.Fatalf("personal shards = %d", info.Shards)
	}
	if rec := do(t, s, "PUT", "/v1/docs/library", bibRecord); rec.Code != http.StatusCreated {
		t.Fatalf("PUT library: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "DELETE", "/v1/docs/library", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE library: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "DELETE", "/v1/docs/library", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("second DELETE: %d", rec.Code)
	}
	gen := s.Corpus().Generation()
	q := `{"terms":["Ben","1999"],"exclude_root":true}`
	want := answerOf(t, do(t, s, "POST", "/v2/query", q))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed store refuses every write with a 500, and a refused write
	// is never served.
	if rec := do(t, s, "PUT", "/v1/docs/late", bibArticle); rec.Code != http.StatusInternalServerError {
		t.Errorf("PUT through a closed store: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "DELETE", "/v1/docs/cwi", ""); rec.Code != http.StatusInternalServerError {
		t.Errorf("DELETE through a closed store: %d %s", rec.Code, rec.Body)
	}
	if names := s.Corpus().Names(); s.Corpus().Generation() != gen || !reflect.DeepEqual(names, []string{"cwi", "personal"}) {
		t.Errorf("refused writes served: %v at generation %d, want [cwi personal] at %d", names, s.Corpus().Generation(), gen)
	}

	// Restart: same directory, fresh corpus and server.
	s2, _ := openDurableServer(t, dir)
	if got := s2.Corpus().Generation(); got != gen {
		t.Errorf("generation after restart = %d, want %d", got, gen)
	}
	if got := answerOf(t, do(t, s2, "POST", "/v2/query", q)); got != want {
		t.Errorf("answers differ after restart:\n%s\nvs\n%s", got, want)
	}
	if rec := do(t, s2, "GET", "/v1/docs/library", ""); rec.Code != http.StatusNotFound {
		t.Errorf("deleted doc resurrected: %d %s", rec.Code, rec.Body)
	}
	info = decode[wire.Doc](t, do(t, s2, "GET", "/v1/docs/personal", ""))
	if info.Shards < 1 {
		t.Errorf("personal shards after restart = %d", info.Shards)
	}
}

func TestDurableShardedUploadStreams(t *testing.T) {
	// A small ?shards=K upload is split the same way with a store
	// attached as without one (ncq.OpenSharded reads only the body size);
	// the shard count lands in [2, K], every shard is persisted, and
	// queries fan out across the shards.
	dir := t.TempDir()
	s, _ := openDurableServer(t, dir)
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 64; i++ {
		sb.WriteString("<article><author>Streaming Author</author><title>Chunked Parsing</title></article>")
	}
	sb.WriteString("</bib>")
	rec := do(t, s, "PUT", "/v1/docs/big?shards=4", sb.String())
	if rec.Code != http.StatusCreated {
		t.Fatalf("streaming PUT: %d %s", rec.Code, rec.Body)
	}
	info := decode[wire.Doc](t, rec)
	if info.Shards < 2 || info.Shards > 4 {
		t.Errorf("streamed shards = %d, want 2..4", info.Shards)
	}
	q := `{"doc":"big","terms":["Streaming","Chunked"],"exclude_root":true}`
	resp := decode[wireQueryResponse](t, do(t, s, "POST", "/v2/query", q))
	if resp.Result == nil || len(resp.Result.Meets) == 0 {
		t.Fatalf("no meets over streamed shards: %s", rec.Body)
	}
}

// shardNodes returns the per-shard node counts of a member — where its
// shard boundaries fell.
func shardNodes(t *testing.T, s *Server, name string) []int {
	t.Helper()
	dbs, ok := s.Corpus().Shards(name)
	if !ok {
		t.Fatalf("no member %q", name)
	}
	nodes := make([]int, len(dbs))
	for i, db := range dbs {
		nodes[i] = db.Stats().Nodes
	}
	return nodes
}

// TestShardedUploadSameShardsWithAndWithoutStore: the same bytes with
// the same ?shards=K become the same shards whether or not the node has
// a data directory, so the (shard, node) address of an answer does not
// depend on a durability flag. Records vary in size so a node-balanced
// and a byte-budget split of the body cannot coincide by accident.
func TestShardedUploadSameShardsWithAndWithoutStore(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 240; i++ {
		sb.WriteString("<article>")
		for a := 0; a <= i%7; a++ {
			fmt.Fprintf(&sb, "<author>Author %d of %d</author>", a, i)
		}
		fmt.Fprintf(&sb, "<title>Shard Drift %d</title><year>%d</year></article>", i, 1990+i%10)
	}
	sb.WriteString("</bib>")
	body := sb.String()

	mem := newTestServer(t)
	dur, _ := openDurableServer(t, t.TempDir())
	const q = `{"terms":["Author","199"],"exclude_root":true}`
	put := func(s *Server, path string, length int64) wire.Doc {
		t.Helper()
		req := httptest.NewRequest("PUT", path, strings.NewReader(body))
		req.ContentLength = length
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", path, rec.Code, rec.Body)
		}
		return decode[wire.Doc](t, rec)
	}

	put(mem, "/v1/docs/big?shards=4", int64(len(body)))
	put(dur, "/v1/docs/big?shards=4", int64(len(body)))
	want := shardNodes(t, mem, "big")
	if len(want) != 4 {
		t.Fatalf("in-memory shards = %v, want 4 of them", want)
	}
	if got := shardNodes(t, dur, "big"); !reflect.DeepEqual(got, want) {
		t.Errorf("shard node counts differ: durable %v, in-memory %v", got, want)
	}
	memAns := decode[wire.Response](t, do(t, mem, "POST", "/v2/query", q)).Result
	durAns := decode[wire.Response](t, do(t, dur, "POST", "/v2/query", q)).Result
	if len(memAns) == 0 || !bytes.Equal(memAns, durAns) {
		t.Errorf("corpus-wide result differs between the two nodes (%d vs %d bytes)", len(memAns), len(durAns))
	}

	// Without Content-Length the size is unknown, so both nodes stream
	// under the 8 MiB budget — which this body fits in whole.
	for _, s := range []*Server{mem, dur} {
		if info := put(s, "/v1/docs/chunked?shards=4", -1); info.Shards != 1 {
			t.Errorf("chunked upload: %d shards, want the streaming policy's 1", info.Shards)
		}
	}
	if got, want := shardNodes(t, dur, "chunked"), shardNodes(t, mem, "chunked"); !reflect.DeepEqual(got, want) {
		t.Errorf("chunked shard node counts differ: durable %v, in-memory %v", got, want)
	}
}

func TestDurableMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurableServer(t, dir)
	do(t, s, "PUT", "/v1/docs/cwi", bibArticle)
	body := do(t, s, "GET", "/v1/metrics", "").Body.String()
	for _, series := range []string{
		"ncq_wal_appends_total 1",
		"ncq_durable_commits_total 1",
		"ncq_replay_records 0",
		"ncq_wal_failed 0",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
	if !strings.Contains(body, "ncq_snapshot_bytes_total") || strings.Contains(body, "ncq_snapshot_bytes_total 0") {
		t.Error("snapshot bytes not accounted")
	}
}
