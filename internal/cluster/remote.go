package cluster

// The remote member: a worker's /v2/query?stream=1&header=1 NDJSON
// response consumed incrementally as an ncq.MeetSource. Each line is
// checked as it arrives and handed to the k-way merge — the
// coordinator never buffers a worker's answer set, so its first global
// result is bounded by the slowest worker's first answer, exactly like
// the in-process fan-out it mirrors. A canonical meet line is relayed
// as it arrived, only its rank key read (wire.LineScanner.Relay), and
// a worker whose keys descend fails.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"

	"ncq"
	"ncq/internal/wire"
)

// Worker is one worker node of the cluster.
type Worker struct {
	Name string // identity used on the ring and in error detail
	URL  string // base URL, e.g. "http://db2:7171"
}

// ParseWorkers parses the -workers flag: a comma-separated list of
// worker addresses. A bare host:port gets the http scheme; the
// host:port is the worker's name.
func ParseWorkers(s string) ([]Worker, error) {
	var workers []Worker
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, errors.New("empty worker address")
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		u, err := url.Parse(part)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("invalid worker address %q", part)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("duplicate worker %q", u.Host)
		}
		seen[u.Host] = true
		workers = append(workers, Worker{Name: u.Host, URL: strings.TrimSuffix(u.String(), "/")})
	}
	if len(workers) == 0 {
		return nil, errors.New("no workers configured")
	}
	return workers, nil
}

// testLineDecode, when set, is invoked for every NDJSON line decoded
// from a worker stream, with the worker's name and the line kind
// ("header", "meet", "trailer", "error"). Tests use it to observe that
// the coordinator's first merged yield happens before any worker's
// trailer has been decoded — i.e. before any stream fully drains.
var testLineDecode func(worker, kind string)

// workerStream is one worker's open NDJSON stream, consumed line by
// line as an ncq.MeetSource. The header has already been read by
// openStream; Next yields answers until the trailer. Failures — a
// broken connection, a mid-stream error line, a meet out of rank order
// — are routed through onFail, which implements the partial-results
// policy: return the error to abort the whole merge (strict mode), or
// record it and return nil to end just this source (allow_partial).
type workerStream struct {
	worker Worker
	header wire.Header
	body   io.ReadCloser
	sc     *wire.LineScanner
	done   bool
	onFail func(w Worker, err error) error

	// Two slots, as the merge reads a line before it yields the last;
	// prev is the last key, which the next must not rank before.
	slots [2][]byte
	turn  int
	prev  ncq.CorpusMeet
}

// answer is a worker's meet in the merge: a canonical line, relayed as
// it arrived (Line, in one of the stream's two slots), and its rank
// key, or any other spelling decoded whole, with Line nil.
type answer struct {
	ncq.CorpusMeet
	Line []byte
}

func answerKey(a *answer) *ncq.CorpusMeet { return &a.CorpusMeet }

func (s *workerStream) Next() (answer, bool, error) {
	if s.done {
		return answer{}, false, nil
	}
	ln, raw, err := s.read()
	switch {
	case err != nil:
		return s.fail(err)
	case ln.Meet != nil:
		a := answer{CorpusMeet: *ln.Meet}
		if ncq.RankLess(&a.CorpusMeet, &s.prev) {
			return s.fail(fmt.Errorf("meets out of rank order: (%d, %q, %d, %d) after (%d, %q, %d, %d)",
				a.Distance, a.Source, a.Shard, a.Node, s.prev.Distance, s.prev.Source, s.prev.Shard, s.prev.Node))
		}
		s.prev = a.CorpusMeet
		if raw != nil {
			s.turn ^= 1
			s.slots[s.turn] = append(append(s.slots[s.turn][:0], raw...), '\n')
			a.Line = s.slots[s.turn]
		}
		return a, true, nil
	case ln.Trailer:
		s.close()
		return answer{}, false, nil
	case ln.Error != "":
		return s.fail(errors.New(ln.Error))
	default:
		return s.fail(errors.New("second header line in stream"))
	}
}

// read scans the next line for relay. A stream that ends without a
// trailer means the worker died mid-answer.
func (s *workerStream) read() (*wire.Line, []byte, error) {
	ln, raw, err := s.sc.Relay()
	if err == io.EOF {
		return nil, nil, io.ErrUnexpectedEOF
	}
	if err == nil && testLineDecode != nil {
		testLineDecode(s.worker.Name, ln.Kind())
	}
	return ln, raw, err
}

// fail closes the stream and applies the failure policy.
func (s *workerStream) fail(err error) (answer, bool, error) {
	s.close()
	err = fmt.Errorf("worker %s: %w", s.worker.Name, err)
	if s.onFail != nil {
		err = s.onFail(s.worker, err)
	}
	return answer{}, false, err
}

// close releases the stream's connection, deadline and scan buffer;
// idempotent.
func (s *workerStream) close() {
	if s.done {
		return
	}
	s.done = true
	s.body.Close()
	s.sc.Close()
}

// openStream POSTs the query body to the worker's streaming endpoint
// and reads the header line — which the worker emits once its fan-out
// has completed and its counters are final, i.e. together with its
// first answer. No meet has been consumed when the status arrives, so
// the call is retried like any read; the returned stream holds the
// attempt's deadline for its whole life.
func (c *Coordinator) openStream(ctx context.Context, w Worker, body []byte) (*workerStream, error) {
	resp, err := c.send(ctx, w, call{method: http.MethodPost, path: "/v2/query?stream=1&header=1", body: body, retry: true})
	if err != nil {
		return nil, err
	}
	ws := &workerStream{worker: w, body: resp.Body, sc: wire.NewLineScanner(resp.Body),
		prev: ncq.CorpusMeet{Meet: ncq.Meet{Distance: math.MinInt}}}
	ln, _, err := ws.read()
	if err == nil && !ln.Header {
		err = fmt.Errorf("stream opened with a %s line, not a header", ln.Kind())
	}
	if err != nil {
		ws.close()
		return nil, err
	}
	ws.header = wire.Header{Node: ln.Node, Generation: ln.Generation, Total: ln.Total, Unmatched: ln.Unmatched}
	return ws, nil
}
