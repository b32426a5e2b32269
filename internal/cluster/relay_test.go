package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/wire"
)

// scriptedWorker serves a fixed NDJSON answer to every query: a header,
// the given meet lines as they are, then a trailer.
func scriptedWorker(tb testing.TB, name string, meets ...string) Worker {
	tb.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"header":true,"node":%q,"generation":1,"total":%d,"unmatched":0}`+"\n", name, len(meets))
		for _, m := range meets {
			fmt.Fprintln(w, m)
		}
		fmt.Fprintln(w, `{"trailer":true,"unmatched":0,"took_ms":0}`)
	}))
	tb.Cleanup(ts.Close)
	return Worker{Name: name, URL: ts.URL}
}

// streamLines posts body to a stream route and returns its status and
// every line of the response.
func streamLines(tb testing.TB, baseURL, body string) (int, []string) {
	tb.Helper()
	resp, err := http.Post(baseURL+"/v2/query?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), wire.MaxLine)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return resp.StatusCode, lines
}

// TestOutOfOrderWorkerFailsByName: a worker whose meets descend in the
// total order (ranks 1, 3, 2 here) is a failed worker, not a silently
// wrong answer. Its meets rank after every healthy one, so the merge
// reaches its broken pair only at the end of the answer. Strict mode
// answers 502 on a page and ends a stream with an error line, each
// naming the worker. allow_partial answers the survivors' exact merge,
// marked incomplete with no cursor; what it merged of the broken
// worker before the pair — the meets ranked 1 and 3, both in order
// against everything around them — stays where it ranks, since a
// stream cannot take a line back and a page is the stream drained.
func TestOutOfOrderWorkerFailsByName(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w1Srv, w1 := startWorker(t, "w1")
	w2Srv, w2 := startWorker(t, "w2")
	addDoc(t, w1Srv, "alpha", docXML(rng, 8))
	addDoc(t, w2Srv, "beta", docXML(rng, 8))
	rank := func(r int) string {
		return fmt.Sprintf(`{"meet":{"source":"zeta","node":%d,"tag":"a","path":"/a","witnesses":[%d],"distance":%d}}`, r, r, 1000+r)
	}
	disorder := scriptedWorker(t, "disorder", rank(1), rank(3), rank(2))
	_, healthyTS := startCoordinator(t, Config{Workers: []Worker{w1, w2}})
	_, mixedTS := startCoordinator(t, Config{Workers: []Worker{w1, w2, disorder}})

	q := `{"terms":["Author","199"],"exclude_root":true`
	_, want, _ := postQuery(t, healthyTS.URL, q+"}")
	var survivors struct {
		Meets []json.RawMessage `json:"meets"`
	}
	if err := json.Unmarshal(want.Result, &survivors); err != nil || len(survivors.Meets) < 4 {
		t.Fatalf("survivors' answer %s: %v", want.Result, err)
	}

	status, _, raw := postQuery(t, mixedTS.URL, q+"}")
	if status != http.StatusBadGateway || !strings.Contains(string(raw), "worker disorder") || !strings.Contains(string(raw), "rank order") {
		t.Errorf("strict page: %d %s, want a 502 naming the worker and the order", status, raw)
	}
	status, lines := streamLines(t, mixedTS.URL, q+"}")
	if status != http.StatusOK || len(lines) != len(survivors.Meets)+2 {
		t.Fatalf("strict stream: %d, %d lines for %d survivors' meets: %q", status, len(lines), len(survivors.Meets), lines)
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"error":"worker disorder: meets out of rank order`) {
		t.Errorf("strict stream ended with %s", last)
	}

	status, env, raw := postQuery(t, mixedTS.URL, q+`,"allow_partial":true}`)
	if status != http.StatusOK || !env.Incomplete || env.NextCursor != "" || !strings.Contains(env.WorkerErrors["disorder"], "rank order") {
		t.Fatalf("allow_partial: %d %s", status, raw)
	}
	var got struct {
		Meets []json.RawMessage `json:"meets"`
	}
	if err := json.Unmarshal(env.Result, &got); err != nil {
		t.Fatal(err)
	}
	wantMeets := append(survivors.Meets, json.RawMessage(rank(1)[8:len(rank(1))-1]), json.RawMessage(rank(3)[8:len(rank(3))-1]))
	if len(got.Meets) != len(wantMeets) {
		t.Fatalf("allow_partial: %d meets, want the %d survivors' and ranks 1 and 3", len(got.Meets), len(survivors.Meets))
	}
	for i := range got.Meets {
		if string(got.Meets[i]) != string(wantMeets[i]) {
			t.Errorf("meet %d: %s, want %s", i, got.Meets[i], wantMeets[i])
		}
	}
}

// TestRelayWritesEncoderBytes: whatever spelling a worker sends, the
// client reads AppendMeetLine's bytes — a canonical line passes through
// as it came, relayed without being decoded, and any other valid
// spelling (keys reordered, a \u0041 escape, a spelled "shard":0) is
// decoded and goes out through the encoder.
func TestRelayWritesEncoderBytes(t *testing.T) {
	const canonical = `{"meet":{"source":"doc","node":1,"tag":"a","path":"/a","witnesses":[1],"distance":1}}`
	sent := []string{
		canonical,
		`{"meet":{"node":2,"source":"doc","tag":"a","path":"/a","witnesses":[2],"distance":1}}`,
		`{"meet":{"source":"doc","node":3,"tag":"\u0041","path":"/a","witnesses":[3],"distance":1}}`,
		`{"meet":{"source":"doc","shard":0,"node":4,"tag":"a","path":"/a","witnesses":[4],"distance":1}}`,
	}
	w := scriptedWorker(t, "spellings", sent...)
	coord, coordTS := startCoordinator(t, Config{Workers: []Worker{w}})

	ws, err := coord.openStream(context.Background(), w, []byte(`{"terms":["a"]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sent {
		a, ok, err := ws.Next()
		if err != nil || !ok {
			t.Fatalf("line %d: %v, %v", i, ok, err)
		}
		if relayed := a.Line != nil; relayed != (i == 0) {
			t.Errorf("line %d relayed as bytes: %t, want %t", i, relayed, i == 0)
		}
	}
	ws.close()

	status, lines := streamLines(t, coordTS.URL, `{"terms":["a"]}`)
	if status != http.StatusOK || len(lines) != len(sent)+1 {
		t.Fatalf("stream: %d %q", status, lines)
	}
	for i, s := range sent {
		var ln struct{ Meet ncq.CorpusMeet }
		if err := json.Unmarshal([]byte(s), &ln); err != nil {
			t.Fatal(err)
		}
		if want := string(wire.AppendMeetLine(nil, &ln.Meet)); lines[i]+"\n" != want {
			t.Errorf("line %d: client read %s, the encoder writes %s", i, lines[i], want)
		}
	}
	if lines[0] != canonical {
		t.Errorf("canonical line changed on its way: %s", lines[0])
	}
}
