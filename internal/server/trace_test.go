package server

import (
	"bytes"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/trace"
	"testing"
)

// TestPutTraceRegions traces one PUT and reads the trace back through
// the toolchain's own parser (go tool trace -d=parsed): the upload is
// one task, "put", and each of its stages one region of that task —
// "parse+shred" and "commit" on the handler, the loader's "index wait"
// and "layout+seal" nested in "parse+shred".
func TestPutTraceRegions(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to parse the trace with")
	}
	s := newTestServer(t)
	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Skipf("a trace is already running: %v", err)
	}
	rec := do(t, s, "PUT", "/v1/docs/bib", bibArticle)
	trace.Stop()
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body)
	}
	file := filepath.Join(t.TempDir(), "put.trace")
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goCmd, "tool", "trace", "-d=parsed", file).Output()
	if err != nil {
		t.Fatalf("go tool trace: %v", err)
	}

	// Events come in time order, each on its goroutine G: a region's
	// parent is the region open on its goroutine when it begins.
	event := regexp.MustCompile(`G=(\d+) (TaskBegin|RegionBegin|RegionEnd) .*?(?:ID|Task)=(\d+).* Type="([^"]*)"`)
	task := ""
	open := map[string][]string{} // per goroutine, the regions open, innermost last
	parent := map[string]string{} // each region's enclosing region, "" for none
	count := map[string]int{}
	for _, m := range event.FindAllStringSubmatch(string(out), -1) {
		g, kind, id, name := m[1], m[2], m[3], m[4]
		switch {
		case kind == "TaskBegin" && name == "put":
			if task != "" {
				t.Fatalf("a second put task: %s after %s", id, task)
			}
			task = id
		case kind == "RegionBegin" && id == task && task != "":
			if stack := open[g]; len(stack) > 0 {
				parent[name] = stack[len(stack)-1]
			}
			open[g] = append(open[g], name)
			count[name]++
		case kind == "RegionEnd" && id == task && task != "":
			open[g] = open[g][:len(open[g])-1]
		}
	}
	if task == "" {
		t.Fatalf("no put task in the trace:\n%s", out)
	}
	want := map[string]string{"parse+shred": "", "index wait": "parse+shred", "layout+seal": "parse+shred", "commit": ""}
	for name, in := range want {
		if count[name] != 1 || parent[name] != in {
			t.Errorf("region %q: %d in the put task, inside %q; want once, inside %q", name, count[name], parent[name], in)
		}
	}
	if len(count) != len(want) {
		t.Errorf("regions of the put task: %v, want those of %v", count, want)
	}
}
