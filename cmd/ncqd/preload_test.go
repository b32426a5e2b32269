package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/durable"
	"ncq/internal/server"
	"ncq/internal/wal"
	"ncq/internal/wire"
)

// records builds a bibliography of n records whose sizes vary, so that
// a node-balanced and a byte-budget split of it cannot coincide.
func records(n int) string {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < n; i++ {
		sb.WriteString("<book>")
		for a := 0; a <= i%5; a++ {
			fmt.Fprintf(&sb, "<author>Author %d of %d</author>", a, i)
		}
		fmt.Fprintf(&sb, "<year>%d</year></book>", 1990+i%10)
	}
	sb.WriteString("</bib>")
	return sb.String()
}

// shardNodes returns the per-shard node counts of a member — where its
// shard boundaries fell.
func shardNodes(t *testing.T, corpus *ncq.Corpus, name string) []int {
	t.Helper()
	dbs, ok := corpus.Shards(name)
	if !ok {
		t.Fatalf("no member %q", name)
	}
	nodes := make([]int, len(dbs))
	for i, db := range dbs {
		nodes[i] = db.Stats().Nodes
	}
	return nodes
}

// TestPreloadSnapshotDirFraming: -load DIR reads a snapshot directory
// with the durable store's own reader, so a directory that is not
// exactly the n files framed 0/n … n-1/n is refused — naming the file —
// instead of registering part of a document.
func TestPreloadSnapshotDirFraming(t *testing.T) {
	xml := records(90)
	doc, err := ncq.ParseDocument(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	dbs, _, err := ncq.NewCorpus().AddSharded("bib", doc, 3)
	if err != nil || len(dbs) != 3 {
		t.Fatalf("AddSharded = %d shards, %v", len(dbs), err)
	}
	shard := func(dir string, i int) string {
		return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", i))
	}
	save := func(path string, write func(f *os.File) error) {
		t.Helper()
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	standalone := func(path string) {
		save(path, func(f *os.File) error { return dbs[0].SaveSnapshot(f) })
	}
	// load lays the member out as the durable store commits it, lets the
	// case damage the directory, and preloads it.
	load := func(t *testing.T, damage func(dir string)) (*ncq.Corpus, error) {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "g3-bib")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, db := range dbs {
			save(shard(dir, i), func(f *os.File) error { return db.SaveSnapshotShard(f, i, len(dbs)) })
		}
		damage(dir)
		corpus := ncq.NewCorpus()
		_, err := preload(corpus, nil, dir, 1)
		return corpus, err
	}

	corpus, err := load(t, func(string) {})
	if err != nil {
		t.Fatalf("intact directory: %v", err)
	}
	total := 0
	for _, n := range shardNodes(t, corpus, "bib") {
		total += n - 1 // all nodes except the replicated root
	}
	whole, err := ncq.OpenString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if shardCount(corpus, "bib") != 3 || total != whole.Len()-1 {
		t.Errorf("intact directory: %d shards holding %d of %d nodes", shardCount(corpus, "bib"), total, whole.Len()-1)
	}

	for _, tc := range []struct {
		name    string
		damage  func(dir string)
		culprit string
	}{
		{"middle file removed", func(dir string) {
			if err := os.Remove(shard(dir, 1)); err != nil {
				t.Fatal(err)
			}
		}, "shard-001.snap"},
		{"two files swapped", func(dir string) {
			tmp := filepath.Join(dir, "tmp")
			for _, mv := range [][2]string{{shard(dir, 1), tmp}, {shard(dir, 2), shard(dir, 1)}, {tmp, shard(dir, 2)}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}, "shard-001.snap"},
		{"standalone snapshot in a shard's place", func(dir string) { standalone(shard(dir, 2)) }, "shard-002.snap"},
		{"standalone snapshot beside the shards", func(dir string) { standalone(shard(dir, 3)) }, "shard-003.snap"},
		{"standalone snapshot first", func(dir string) { standalone(shard(dir, 0)) }, "shard-001.snap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corpus, err := load(t, tc.damage)
			if err == nil || !strings.Contains(err.Error(), tc.culprit) {
				t.Errorf("err = %v, want a refusal naming %s", err, tc.culprit)
			}
			if corpus.Len() != 0 {
				t.Errorf("registered %v from a damaged directory", corpus.Names())
			}
		})
	}

	// One standalone snapshot on its own is a plain member.
	corpus, err = load(t, func(dir string) {
		for i := range dbs {
			if err := os.Remove(shard(dir, i)); err != nil {
				t.Fatal(err)
			}
		}
		standalone(shard(dir, 0))
	})
	if err != nil {
		t.Fatalf("single standalone snapshot: %v", err)
	}
	if _, plain := corpus.Get("bib"); !plain {
		t.Errorf("single standalone snapshot did not register as a plain member")
	}
}

// TestPreloadShardsLikePut: -load FILE -shards K goes through the same
// bytes-to-shards function as PUT ?shards=K of the file, with and
// without -data-dir — all four doors put the shard boundaries in the
// same places and answer a corpus-wide query byte for byte alike.
func TestPreloadShardsLikePut(t *testing.T) {
	xml := records(240)
	file := filepath.Join(t.TempDir(), "bib.xml")
	if err := os.WriteFile(file, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	durableCorpus := func() (*ncq.Corpus, *durable.Store) {
		t.Helper()
		corpus := ncq.NewCorpus()
		store, err := durable.Open(t.TempDir(), wal.PolicyOff, corpus)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		return corpus, store
	}

	doors := map[string]*ncq.Corpus{}
	doors["-load"] = ncq.NewCorpus()
	if _, err := preload(doors["-load"], nil, file, 4); err != nil {
		t.Fatal(err)
	}
	corpus, store := durableCorpus()
	doors["-load -data-dir"] = corpus
	if _, err := preload(corpus, store, file, 4); err != nil {
		t.Fatal(err)
	}
	doors["PUT"] = ncq.NewCorpus()
	corpus, store = durableCorpus()
	doors["PUT -data-dir"] = corpus
	for door, srv := range map[string]*server.Server{
		"PUT":           server.New(doors["PUT"]),
		"PUT -data-dir": server.New(corpus, server.WithDurability(store)),
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/docs/bib?shards=4", strings.NewReader(xml)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: %d %s", door, rec.Code, rec.Body)
		}
	}

	want := shardNodes(t, doors["PUT"], "bib")
	if len(want) != 4 {
		t.Fatalf("PUT shards = %v, want 4 of them", want)
	}
	answer := func(corpus *ncq.Corpus) string {
		rec := httptest.NewRecorder()
		server.New(corpus).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v2/query",
			strings.NewReader(`{"terms":["Author","199"],"exclude_root":true}`)))
		var env wire.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusOK || err != nil || len(env.Result) == 0 {
			t.Fatalf("query: %d %v %s", rec.Code, err, rec.Body)
		}
		return string(env.Result)
	}
	wantAnswer := answer(doors["PUT"])
	for door, corpus := range doors {
		if got := shardNodes(t, corpus, "bib"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shard node counts %v, PUT has %v", door, got, want)
		}
		if got := answer(corpus); got != wantAnswer {
			t.Errorf("%s: corpus-wide result differs from PUT's", door)
		}
	}
}
