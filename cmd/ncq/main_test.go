package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncq/internal/server"
)

const fig1XML = `<bibliography><institute>
<article key="BB99"><author><firstname>Ben</firstname><lastname>Bit</lastname></author>
<title>How to Hack</title><year>1999</year></article>
<article key="BK99"><author>Bob Byte</author><title>Hacking &amp; RSI</title><year>1999</year></article>
</institute></bibliography>`

// writeFixture writes the Fig. 1 document to a temp file.
func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig1.xml")
	if err := os.WriteFile(path, []byte(fig1XML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// exec runs the CLI and returns (exit code, stdout, stderr).
func exec(t *testing.T, stdin string, argv ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(argv, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCLIUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,                           // no args at all
		{"stats"},                     // no input file
		{"-f", "x.xml", "-snap", "y"}, // both inputs
		{"-f", "x.xml"},               // no command
	}
	for _, argv := range cases {
		if code, _, errOut := exec(t, "", argv...); code != 2 || !strings.Contains(errOut, "usage:") {
			t.Errorf("argv %v: code %d, stderr %q", argv, code, errOut)
		}
	}
}

func TestCLIMissingFile(t *testing.T) {
	code, _, errOut := exec(t, "", "-f", "/nonexistent.xml", "stats")
	if code != 1 || !strings.Contains(errOut, "ncq:") {
		t.Errorf("code %d, stderr %q", code, errOut)
	}
}

func TestCLIStats(t *testing.T) {
	f := writeFixture(t)
	code, out, _ := exec(t, "", "-f", f, "stats")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "nodes         19") {
		t.Errorf("stats output:\n%s", out)
	}
}

func TestCLIMeet(t *testing.T) {
	f := writeFixture(t)
	code, out, _ := exec(t, "", "-f", f, "meet", "Bit", "1999")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "<article> node 3") || !strings.Contains(out, "distance 5") {
		t.Errorf("meet output:\n%s", out)
	}
}

func TestCLIMeetShowAndWithin(t *testing.T) {
	f := writeFixture(t)
	_, out, _ := exec(t, "", "-f", f, "-show", "meet", "Bit", "1999")
	if !strings.Contains(out, "<title>How to Hack</title>") {
		t.Errorf("show output:\n%s", out)
	}
	_, out, _ = exec(t, "", "-f", f, "-within", "4", "meet", "Bit", "1999")
	if !strings.Contains(out, "0 nearest concept(s)") {
		t.Errorf("within output:\n%s", out)
	}
}

func TestCLISearch(t *testing.T) {
	f := writeFixture(t)
	code, out, _ := exec(t, "", "-f", f, "search", "Hack")
	if code != 0 || !strings.Contains(out, `"Hack": 2 hit(s)`) {
		t.Errorf("code %d, output:\n%s", code, out)
	}
	if code, _, _ := exec(t, "", "-f", f, "search"); code != 1 {
		t.Error("search without terms should fail")
	}
}

func TestCLIQuery(t *testing.T) {
	f := writeFixture(t)
	code, out, _ := exec(t, "", "-f", f, "query",
		`SELECT meet(e1, e2) FROM //cdata AS e1, //cdata AS e2 WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'`)
	if code != 0 || !strings.Contains(out, "<result> article </result>") {
		t.Errorf("code %d, output:\n%s", code, out)
	}
	if code, _, errOut := exec(t, "", "-f", f, "query", "garbage"); code != 1 || errOut == "" {
		t.Error("bad query should fail with a diagnostic")
	}
	if code, _, _ := exec(t, "", "-f", f, "query"); code != 1 {
		t.Error("query without SQL should fail")
	}
}

func TestCLIPathsAndTransform(t *testing.T) {
	f := writeFixture(t)
	_, out, _ := exec(t, "", "-f", f, "paths")
	if !strings.Contains(out, "/bibliography/institute/article") {
		t.Errorf("paths output:\n%s", out)
	}
	_, out, _ = exec(t, "", "-f", f, "transform", "1")
	if !strings.Contains(out, "… (1 more)") {
		t.Errorf("transform output:\n%s", out)
	}
}

// TestCLIIntegerArguments: an integer argument is a whole integer or
// refused — never its numeric prefix, never a default in its place,
// never one of several with the rest dropped.
func TestCLIIntegerArguments(t *testing.T) {
	f := writeFixture(t)
	for _, c := range []struct {
		stdin   string
		argv    []string
		code    int
		want    string // in stdout or stderr
		mustNot string // in stdout
	}{
		{"", []string{"transform", "abc"}, 1, "not an integer", "@"},
		{"", []string{"transform", "1x"}, 1, "not an integer", "@"},
		{"", []string{"transform", "1", "2"}, 1, "at most one limit", "@"},
		{"", []string{"transform", "1"}, 0, "… (1 more)", "not an integer"},
		{"meet Bit 1999\nshow 0x\n", []string{"repl"}, 0, "no such result", `<article key="BB99">`},
		{"meet Bit 1999\nexplain 0x\n", []string{"repl"}, 0, "no such result", "connects:"},
		{"meet Bit 1999\nshow +0\n", []string{"repl"}, 0, `<article key="BB99">`, "no such result"},
	} {
		code, out, errOut := exec(t, c.stdin, append([]string{"-f", f}, c.argv...)...)
		if code != c.code || !strings.Contains(out+errOut, c.want) || strings.Contains(out, c.mustNot) {
			t.Errorf("%q on %q: exit %d, stdout %q, stderr %q; want exit %d with %q and without %q",
				c.argv, c.stdin, code, out, errOut, c.code, c.want, c.mustNot)
		}
	}
}

func TestCLISnapshotRoundTrip(t *testing.T) {
	f := writeFixture(t)
	snap := filepath.Join(t.TempDir(), "fig1.snap")
	code, _, errOut := exec(t, "", "-f", f, "-save-snapshot", snap, "stats")
	if code != 0 || !strings.Contains(errOut, "snapshot written") {
		t.Fatalf("save failed: code %d, stderr %q", code, errOut)
	}
	code, out, _ := exec(t, "", "-snap", snap, "meet", "Bit", "1999")
	if code != 0 || !strings.Contains(out, "<article> node 3") {
		t.Errorf("snapshot meet: code %d\n%s", code, out)
	}
	// Corrupt snapshot fails cleanly.
	if err := os.WriteFile(snap, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := exec(t, "", "-snap", snap, "stats"); code != 1 {
		t.Error("corrupt snapshot accepted")
	}
}

func TestCLIUnknownCommand(t *testing.T) {
	f := writeFixture(t)
	code, _, errOut := exec(t, "", "-f", f, "frobnicate")
	if code != 1 || !strings.Contains(errOut, "unknown command") {
		t.Errorf("code %d, stderr %q", code, errOut)
	}
}

func TestCLIRepl(t *testing.T) {
	f := writeFixture(t)
	session := strings.Join([]string{
		"",              // empty line ignored
		"meet Bit 1999", // populates lastMeets
		"show 0",
		"explain 0",
		"show 99",     // out of range
		"search Hack", // inline search
		"stats",
		"SELECT tag(e) FROM //year AS e",
		"bogus",
		"quit",
	}, "\n")
	code, out, _ := exec(t, session, "-f", f, "repl")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"1 concept(s)",
		"<article key=\"BB99\">",
		"<article> connects:",
		"no such result",
		`"Hack": 2 hit(s)`,
		"nodes 19",
		"<result> year </result>",
		"commands:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("repl output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIReplEOF(t *testing.T) {
	f := writeFixture(t)
	// EOF without quit terminates cleanly.
	if code, _, _ := exec(t, "meet Ben", "-f", f, "repl"); code != 0 {
		t.Errorf("exit %d", code)
	}
}

// TestCLIMeetStream pins the local -stream mode: same concepts as the
// batch meet, printed result-lines-first with the summary last.
func TestCLIMeetStream(t *testing.T) {
	f := writeFixture(t)
	code, out, _ := exec(t, "", "-f", f, "-stream", "meet", "Bit", "1999")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "<article> node 3") || !strings.Contains(out, "distance 5") {
		t.Errorf("stream meet output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.Contains(lines[len(lines)-1], "nearest concept(s)") {
		t.Errorf("summary line not last:\n%s", out)
	}
}

// TestCLIRemoteMeet runs the CLI against a live ncqd handler: the
// plain v2 round trip and the NDJSON -stream consumption.
func TestCLIRemoteMeet(t *testing.T) {
	srv := server.New(nil)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("PUT", "/v1/docs/fig1", strings.NewReader(fig1XML))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 201 {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, out, _ := exec(t, "", "-server", ts.URL, "meet", "Bit", "1999")
	if code != 0 {
		t.Fatalf("remote meet exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "<article> fig1 node 3") {
		t.Errorf("remote meet output:\n%s", out)
	}

	code, out, _ = exec(t, "", "-server", ts.URL, "-stream", "meet", "Bit", "1999")
	if code != 0 {
		t.Fatalf("remote stream exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "<article> fig1 node 3") ||
		!strings.Contains(out, "unmatched input(s)") {
		t.Errorf("remote stream output:\n%s", out)
	}

	// Server-side errors surface as CLI diagnostics, not panics.
	code, _, errOut := exec(t, "", "-server", ts.URL, "-stream", "meet", "")
	if code != 1 || !strings.Contains(errOut, "server:") {
		t.Errorf("remote error: code %d, stderr %q", code, errOut)
	}

	// The meet options are one spec: a bound the daemon refuses is
	// refused by a local run too, streamed or not.
	f := writeFixture(t)
	for _, argv := range [][]string{{"-server", ts.URL}, {"-f", f}, {"-f", f, "-stream"}} {
		code, out, errOut := exec(t, "", append(argv, "-within", "-1", "meet", "Bit", "1999")...)
		if code != 1 || !strings.Contains(errOut, "non-negative") {
			t.Errorf("%q -within -1: code %d, stdout %q, stderr %q; want a refusal", argv, code, out, errOut)
		}
	}

	// -server supports meet only.
	if code, _, errOut := exec(t, "", "-server", ts.URL, "stats"); code != 2 || !strings.Contains(errOut, "meet command only") {
		t.Errorf("remote stats: code %d, stderr %q", code, errOut)
	}
}

// TestCLIRemoteStreamLongLine: the CLI reads NDJSON through the same
// scanner as the coordinator, so a meet line the cluster relays (here
// 200k witnesses, ≈1.4 MB) does not die with "token too long".
func TestCLIRemoteStreamLongLine(t *testing.T) {
	var line strings.Builder
	line.WriteString(`{"meet":{"source":"big","node":1,"tag":"bib","path":"/bib","witnesses":[`)
	for i := 0; i < 200_000; i++ {
		if i > 0 {
			line.WriteByte(',')
		}
		fmt.Fprintf(&line, "%d", 100_000+i)
	}
	line.WriteString(`],"distance":3}}` + "\n")
	if line.Len() < 1_300_000 {
		t.Fatalf("line is only %d bytes", line.Len())
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, line.String())
		io.WriteString(w, `{"trailer":true,"unmatched":2,"took_ms":1.5}`+"\n")
	}))
	defer ts.Close()
	code, out, errOut := exec(t, "", "-server", ts.URL, "-stream", "meet", "x")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "1 nearest concept(s), 2 unmatched input(s), 1.5 ms") {
		t.Errorf("no summary line; output ends %q", out[max(0, len(out)-120):])
	}
}
