//go:build ncqfail

package server

// The kill-at-failpoint matrix: a child process runs a script of
// mutations and is killed at an armed crash point mid-persistence
// (mid-snapshot write, before or mid-WAL-append, either side of the
// commit rename), then the data directory is recovered and must answer
// /v2/query byte-identically — envelope Result and generation — to an
// uncrashed reference node that never saw the doomed mutation. This is the robustness analogue of the
// cluster's TestDistributedEqualsSingleNode: instead of "distributed
// equals single node", "crashed-and-recovered equals never-crashed".
//
// Run with: go test -race -tags ncqfail ./internal/server -run TestCrash

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/durable"
	"ncq/internal/wal"
)

// crashCases is the injection matrix: which point is armed, and the
// script of requests the child runs until it fires. Every point sits
// between a client's request and its acknowledgement, so in every case
// the mutation was never acked and recovery must not surface it.
var crashCases = []struct {
	name   string
	point  string
	script func(t *testing.T, srv *Server)
}{
	{"put/snapshot-mid", "snapshot-mid", putScript},           // torn shard snapshot in staging
	{"put/wal-append-mid", "wal-append-mid", putScript},       // torn record at the log tail
	{"put/rename-pre", "rename-pre", putScript},               // staged but never renamed
	{"put/rename-post", "rename-post", putScript},             // renamed but never logged — an orphan directory
	{"delete/wal-append-mid", "wal-append-mid", deleteScript}, // torn delete record at the log tail
	{"delete/wal-append-pre", "wal-append-pre", deleteScript}, // killed before its record is written
}

// putScript replaces an existing doc and adds a new one — whichever
// commit trips the armed point first kills the process (expected
// mid-request).
func putScript(t *testing.T, srv *Server) {
	do(t, srv, "PUT", "/v1/docs/alpha", `<bib><article><author>Overwritten</author></article></bib>`)
	do(t, srv, "PUT", "/v1/docs/doomed?shards=2", seedXML(8))
}

// deleteScript evicts the sharded member; its one append trips the
// armed point.
func deleteScript(t *testing.T, srv *Server) {
	do(t, srv, "DELETE", "/v1/docs/beta", "")
}

func seedXML(n int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<article><author>Author%d</author><title>Title%d</title><year>%d</year></article>", i, i, 1990+i%10)
	}
	b.WriteString("</bib>")
	return b.String()
}

// seedStore populates a fresh durable server with the baseline corpus
// both the crashing node and the reference node start from.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	corpus := ncq.NewCorpus()
	store, err := durable.Open(dir, wal.PolicyAlways, corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(corpus, WithDurability(store))
	if rec := do(t, srv, "PUT", "/v1/docs/alpha", seedXML(24)); rec.Code != http.StatusCreated {
		t.Fatalf("seed alpha: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, srv, "PUT", "/v1/docs/beta?shards=4", seedXML(40)); rec.Code != http.StatusCreated {
		t.Fatalf("seed beta: %d %s", rec.Code, rec.Body)
	}
}

// queryEnvelopes runs the comparison probes against a recovered or
// reference node and returns the deterministic parts of each /v2/query
// envelope (generation + raw Result bytes; took_ms naturally varies).
func queryEnvelopes(t *testing.T, srv *Server) []string {
	t.Helper()
	probes := []string{
		`{"terms":["Author3","1993"],"exclude_root":true}`,
		`{"doc":"alpha","terms":["Author1","Title1"],"exclude_root":true}`,
		`{"doc":"beta","terms":["Author7","1997"],"exclude_root":true}`,
		`{"doc":"beta","query":"SELECT value(e) FROM //author AS e"}`,
	}
	var out []string
	for _, probe := range probes {
		out = append(out, answerOf(t, do(t, srv, "POST", "/v2/query", probe)))
	}
	return out
}

func TestCrashMatrix(t *testing.T) {
	// Reference node: seeded, never crashed.
	refDir := t.TempDir()
	seedStore(t, refDir)
	refCorpus := ncq.NewCorpus()
	refStore, err := durable.Open(refDir, wal.PolicyAlways, refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	refSrv := New(refCorpus, WithDurability(refStore))
	want := queryEnvelopes(t, refSrv)
	wantGen := refCorpus.Generation()

	for _, tc := range crashCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedStore(t, dir)

			// The child runs the row's script; the armed crash point kills
			// it mid-persistence of the first mutation. Nothing it did may
			// survive.
			cmd := exec.Command(os.Args[0], "-test.run=TestCrashChildHelper$", tc.name)
			cmd.Env = append(os.Environ(),
				"NCQ_CRASH_CHILD_DIR="+dir,
				"NCQ_CRASHPOINT="+tc.point,
			)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != wal.CrashExitCode {
				t.Fatalf("child at %q: err=%v (want exit %d)\n%s", tc.point, err, wal.CrashExitCode, out)
			}

			// Recover and compare against the uncrashed reference.
			corpus := ncq.NewCorpus()
			store, err := durable.Open(dir, wal.PolicyAlways, corpus)
			if err != nil {
				t.Fatalf("recovery after %q: %v", tc.point, err)
			}
			defer store.Close()
			if got := corpus.Generation(); got != wantGen {
				t.Errorf("recovered generation = %d, want exact pre-crash %d", got, wantGen)
			}
			srv := New(corpus, WithDurability(store))
			got := queryEnvelopes(t, srv)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("probe %d after %q:\nrecovered: %s\nreference: %s", i, tc.point, got[i], want[i])
				}
			}
			// The doomed mutation's debris is gone from disk too.
			for _, d := range store.DocDirs() {
				if strings.Contains(d, "doomed") {
					t.Errorf("debris survived recovery: %s", d)
				}
			}
		})
	}
}

// TestCrashChildHelper is the sacrificial process of the matrix: it
// opens the durable store the parent prepared and runs the script of
// the row named by its one argument until the armed crash point kills
// it. It is skipped in a normal test run.
func TestCrashChildHelper(t *testing.T) {
	dir := os.Getenv("NCQ_CRASH_CHILD_DIR")
	if dir == "" {
		t.Skip("crash-matrix child helper; runs only when re-executed by TestCrashMatrix")
	}
	corpus := ncq.NewCorpus()
	store, err := durable.Open(dir, wal.PolicyAlways, corpus)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(1)
	}
	srv := New(corpus, WithDurability(store))
	for _, tc := range crashCases {
		if tc.name == flag.Arg(0) {
			tc.script(t, srv)
		}
	}
	// Reaching this line means the crash point never fired.
	fmt.Fprintln(os.Stderr, "child survived: crash point did not fire")
	os.Exit(2)
}
