package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ncq/internal/wire"
)

// TestStalledWorkerLinesReachClient pins the stream's delay bound one
// level up: a worker that sends its header and 20 meets and then hangs
// does not park the lines the coordinator has already merged until
// the worker timeout — the client reads them while the worker is still
// stalled. (The merge refills a source's head before it yields, so
// the last meet the worker sent waits for the worker's next line; the
// 19 before it do not.) When the worker then dies, strict mode ends
// the stream with an error line and allow_partial with the held meet
// and a trailer marked incomplete.
func TestStalledWorkerLinesReachClient(t *testing.T) {
	const meets = 20
	for _, mode := range []struct{ name, body string }{
		{"strict", `{"terms":["a","b"]}`},
		{"allow_partial", `{"terms":["a","b"],"allow_partial":true}`},
	} {
		t.Run(mode.name, func(t *testing.T) {
			lastWrite := make(chan time.Time, 1)
			release := make(chan struct{})
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprintf(w, `{"header":true,"node":"stalling","generation":1,"total":%d,"unmatched":0}`+"\n", meets)
				for i := 1; i <= meets; i++ {
					fmt.Fprintf(w, `{"meet":{"source":"doc","node":%d,"tag":"a","path":"/a","witnesses":[%d],"distance":%d}}`+"\n", i, i, i)
				}
				w.(http.Flusher).Flush()
				lastWrite <- time.Now()
				select {
				case <-release:
				case <-time.After(time.Second):
				}
				panic(http.ErrAbortHandler) // dies without a trailer
			}))
			defer worker.Close()
			_, coord := startCoordinator(t, Config{Workers: []Worker{{Name: "stalling", URL: worker.URL}}})

			resp, err := http.Post(coord.URL+"/v2/query?stream=1", "application/json", strings.NewReader(mode.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			sc := wire.NewLineScanner(resp.Body)
			for i := 1; i < meets; i++ {
				if ln, err := sc.Next(); err != nil || ln.Meet == nil || int(ln.Meet.Node) != i {
					t.Fatalf("line %d: %+v, %v", i, ln, err)
				}
			}
			if late := time.Since(<-lastWrite); late > 250*time.Millisecond {
				t.Errorf("merged lines reached the client %v after the worker stalled", late)
			}
			close(release)
			ln, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if mode.name == "strict" {
				if !strings.Contains(ln.Error, "stalling") {
					t.Errorf("strict stream ended with %+v", ln)
				}
				return
			}
			if ln.Meet == nil || int(ln.Meet.Node) != meets {
				t.Fatalf("held meet: %+v", ln)
			}
			if ln, err = sc.Next(); err != nil || !ln.Trailer || !ln.Incomplete || ln.WorkerErrors["stalling"] == "" {
				t.Errorf("partial stream ended with %+v, %v", ln, err)
			}
		})
	}
}
