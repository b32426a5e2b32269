package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ncq"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the daemon goroutine
// writes stderr while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stderr, nil); code != 2 {
		t.Errorf("exit = %d", code)
	}
	if code := run([]string{"positional"}, &stderr, nil); code != 2 {
		t.Errorf("positional args: exit = %d", code)
	}
}

func TestBadLoadGlob(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-load", filepath.Join(t.TempDir(), "*.xml")}, &stderr, nil); code != 1 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "matched no files") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestPreload(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bib.xml"),
		[]byte(`<bib><book><author>Bit</author><year>1999</year></book></bib>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "refs.xml"),
		[]byte(`<refs><entry><who>Bit</who></entry></refs>`), 0o644); err != nil {
		t.Fatal(err)
	}
	corpus := ncq.NewCorpus()
	n, err := preload(corpus, nil, filepath.Join(dir, "*.xml"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || corpus.Len() != 2 {
		t.Fatalf("preloaded %d, corpus len %d", n, corpus.Len())
	}
	if _, ok := corpus.Get("bib"); !ok {
		t.Error("doc not registered under its base name")
	}

	// Sharded preload registers the same logical names.
	sharded := ncq.NewCorpus()
	if _, err := preload(sharded, nil, filepath.Join(dir, "*.xml"), 4); err != nil {
		t.Fatal(err)
	}
	if sharded.Len() != 2 || !sharded.Has("bib") {
		t.Errorf("sharded preload: len %d", sharded.Len())
	}
	if sharded.ShardCount("bib") < 1 {
		t.Error("bib has no shards")
	}

	// A malformed member fails the whole preload, sharded or not.
	if err := os.WriteFile(filepath.Join(dir, "bad.xml"), []byte("<unclosed>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := preload(ncq.NewCorpus(), nil, filepath.Join(dir, "*.xml"), 1); err == nil {
		t.Error("malformed file accepted")
	}
	if _, err := preload(ncq.NewCorpus(), nil, filepath.Join(dir, "*.xml"), 4); err == nil {
		t.Error("malformed file accepted by sharded preload")
	}
}

// TestPprofEndpoint boots the daemon with the opt-in profiling
// listener and smoke-tests /debug/pprof/ on it — and only on it: the
// serving port must not expose the profiler.
func TestPprofEndpoint(t *testing.T) {
	var stderr syncBuffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}, &stderr, ready)
	}()
	var base string
	select {
	case base = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}

	// The pprof address is reported on stderr before the main listener
	// comes up, so it is present by now.
	m := regexp.MustCompile(`msg="pprof listening".* addr=(\S+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no pprof address in stderr: %s", stderr.String())
	}
	resp, err := http.Get("http://" + m[1] + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: %d %.200s", resp.StatusCode, body)
	}

	// The query port serves no profiler.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("main listener exposes /debug/pprof/")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never shut down; stderr: %s", stderr.String())
	}
}

// TestServeAndShutdown boots the daemon on an ephemeral port with a
// preloaded document, queries it over real HTTP, and stops it with
// SIGTERM — the full service lifecycle.
func TestServeAndShutdown(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bib.xml"),
		[]byte(`<bib><book><author>Bit</author><year>1999</year></book></bib>`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-load", filepath.Join(dir, "*.xml")},
			&stderr, ready)
	}()
	var base string
	select {
	case base = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v2/query", "application/json",
		strings.NewReader(`{"doc":"bib","terms":["Bit","1999"],"exclude_root":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"tag":"book"`) {
		t.Errorf("query: %d %s", resp.StatusCode, body)
	}

	// The streaming form serves the same answer as NDJSON over a real
	// connection: meet lines first, one trailer line last.
	resp, err = http.Post(base+"/v2/query?stream=1", "application/json",
		strings.NewReader(`{"doc":"bib","terms":["Bit","1999"],"exclude_root":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Errorf("stream query: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], `"meet"`) ||
		!strings.Contains(lines[len(lines)-1], `"trailer":true`) {
		t.Errorf("stream body:\n%s", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never shut down; stderr: %s", stderr.String())
	}
}

// TestDurableLifecycle is the operator's crash drill as a test: boot
// with -data-dir, mutate over real HTTP, terminate, boot a second
// daemon on the same directory and observe the same corpus at the same
// generation.
func TestDurableLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	docs := t.TempDir()
	if err := os.WriteFile(filepath.Join(docs, "bib.xml"),
		[]byte(`<bib><book><author>Bit</author><year>1999</year></book></bib>`), 0o644); err != nil {
		t.Fatal(err)
	}

	boot := func(extra ...string) (string, chan int, *syncBuffer) {
		stderr := &syncBuffer{}
		ready := make(chan string, 1)
		done := make(chan int, 1)
		args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "always"}, extra...)
		go func() { done <- run(args, stderr, ready) }()
		select {
		case base := <-ready:
			return base, done, stderr
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
			return "", nil, nil
		}
	}
	stopDaemon := func(done chan int, stderr *syncBuffer) {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != 0 {
				t.Errorf("exit = %d; stderr: %s", code, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon never shut down; stderr: %s", stderr.String())
		}
	}

	// First life: preload one doc from disk, add a sharded one over HTTP.
	base, done, stderr := boot("-load", filepath.Join(docs, "*.xml"))
	req, err := http.NewRequest("PUT", base+"/v1/docs/refs?shards=2",
		strings.NewReader(`<refs><entry><who>Bit</who></entry><entry><who>Code</who></entry></refs>`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT refs: %d", resp.StatusCode)
	}
	gen := resp.Header.Get("X-NCQ-Generation")
	stopDaemon(done, stderr)

	// Second life: no -load; everything must come back from the data dir.
	base, done, stderr = boot()
	resp, err = http.Post(base+"/v2/query", "application/json",
		strings.NewReader(`{"terms":["Bit","1999"],"exclude_root":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"tag":"book"`) {
		t.Errorf("query after restart: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"generation":`+gen) || !strings.Contains(string(body), `"docs":2`) {
		t.Errorf("healthz after restart (want generation %s, 2 docs): %s", gen, body)
	}
	if !strings.Contains(stderr.String(), "recovered corpus") {
		t.Errorf("no recovery log line; stderr: %s", stderr.String())
	}
	stopDaemon(done, stderr)
}

func TestCoordinatorRejectsDataDir(t *testing.T) {
	var stderr bytes.Buffer
	code := run([]string{"-coordinator", "-workers", "localhost:1", "-data-dir", t.TempDir()}, &stderr, nil)
	if code != 2 || !strings.Contains(stderr.String(), "-data-dir") {
		t.Errorf("exit = %d, stderr = %q", code, stderr.String())
	}
}

func TestBadFsyncFlag(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-fsync", "sometimes"}, &stderr, nil); code != 2 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "-fsync") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestPreloadSnapshots covers the two snapshot shapes -load accepts
// beyond XML: a .snap file written by SaveSnapshot, and a snapshot
// directory of shard-NNN.snap files in the durable store's layout
// (generation prefix and path escaping included).
func TestPreloadSnapshots(t *testing.T) {
	dir := t.TempDir()
	db, err := ncq.OpenString(`<bib><book><author>Bit</author><year>1999</year></book></bib>`)
	if err != nil {
		t.Fatal(err)
	}

	// A plain .snap file registers under its base name.
	f, err := os.Create(filepath.Join(dir, "bib.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A durable-layout snapshot directory registers the sharded member
	// under its unescaped, generation-stripped name.
	shardDir := filepath.Join(dir, "g7-my%20doc")
	if err := os.Mkdir(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	shards := []string{
		`<refs><entry><who>Bit</who></entry></refs>`,
		`<refs><entry><who>Code</who></entry></refs>`,
	}
	for i, xml := range shards {
		sdb, err := ncq.OpenString(xml)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := os.Create(filepath.Join(shardDir, fmt.Sprintf("shard-%03d.snap", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sdb.SaveSnapshotShard(sf, i, len(shards)); err != nil {
			t.Fatal(err)
		}
		sf.Close()
	}

	corpus := ncq.NewCorpus()
	n, err := preload(corpus, nil, filepath.Join(dir, "*"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || corpus.Len() != 2 {
		t.Fatalf("preloaded %d entries, corpus len %d", n, corpus.Len())
	}
	if !corpus.Has("bib") {
		t.Error("snapshot file not registered under its base name")
	}
	if !corpus.Has("my doc") {
		t.Errorf("snapshot directory not registered; members = %v", corpus.Names())
	}
	if corpus.ShardCount("my doc") != 2 {
		t.Errorf("shard count = %d, want 2", corpus.ShardCount("my doc"))
	}
	// The snapshot members answer queries like any preloaded XML.
	res, err := corpus.Run(context.Background(), ncq.Request{Doc: "bib", Terms: []string{"Bit", "1999"}, Options: ncq.ExcludeRoot()})
	if err != nil || len(res.Meets) == 0 {
		t.Errorf("snapshot member does not answer: %v %v", res, err)
	}

	// A directory without shard files fails the preload.
	empty := filepath.Join(t.TempDir(), "vacant")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := preload(ncq.NewCorpus(), nil, empty, 1); err == nil {
		t.Error("empty snapshot directory accepted")
	}
	// A truncated .snap file fails the preload.
	if err := os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := preload(ncq.NewCorpus(), nil, filepath.Join(dir, "*.snap"), 1); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// TestThesaurusFlag boots the daemon with -thesaurus and checks the
// synonym classes reach vague-mode expansion over real HTTP.
func TestThesaurusFlag(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bib.xml"),
		[]byte(`<bib><book><author>Bit</author><year>1999</year></book></bib>`), 0o644); err != nil {
		t.Fatal(err)
	}
	thFile := filepath.Join(dir, "synonyms.txt")
	if err := os.WriteFile(thFile,
		[]byte("# test classes\nbinary, Bit\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr syncBuffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0",
			"-load", filepath.Join(dir, "*.xml"), "-thesaurus", thFile}, &stderr, ready)
	}()
	var base string
	select {
	case base = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}

	post := func(body string) string {
		resp, err := http.Post(base+"/v2/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, raw)
		}
		return string(raw)
	}
	exact := post(`{"doc":"bib","terms":["binary","1999"],"exclude_root":true}`)
	if strings.Contains(exact, `"tag"`) {
		t.Errorf("exact mode expanded the synonym: %s", exact)
	}
	expanded := post(`{"doc":"bib","terms":["binary","1999"],"exclude_root":true,"vague":{"expand":true}}`)
	if !strings.Contains(expanded, `"tag":"book"`) {
		t.Errorf("expansion found nothing: %s", expanded)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never shut down; stderr: %s", stderr.String())
	}
}

// TestBadThesaurusFile pins the boot-time failures: a missing file and
// a malformed class line both refuse to start.
func TestBadThesaurusFile(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-thesaurus", filepath.Join(t.TempDir(), "absent.txt")}, &stderr, nil); code != 1 {
		t.Errorf("missing file: exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "-thesaurus") {
		t.Errorf("stderr = %q", stderr.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("loneterm\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-thesaurus", bad}, &stderr, nil); code != 1 {
		t.Errorf("malformed file: exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "synonym class") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestCoordinatorRejectsThesaurus: synonym classes belong on the
// workers that execute the expansion, not on the merge-only node.
func TestCoordinatorRejectsThesaurus(t *testing.T) {
	th := filepath.Join(t.TempDir(), "syn.txt")
	if err := os.WriteFile(th, []byte("a, b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := run([]string{"-coordinator", "-workers", "localhost:1", "-thesaurus", th}, &stderr, nil)
	if code != 2 || !strings.Contains(stderr.String(), "-thesaurus") {
		t.Errorf("exit = %d, stderr = %q", code, stderr.String())
	}
}
