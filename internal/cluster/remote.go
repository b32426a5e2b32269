package cluster

// The remote member: a worker's /v2/query?stream=1&header=1 NDJSON
// response consumed incrementally as an ncq.MeetSource. Each line is
// decoded as it arrives and handed to the k-way merge — the
// coordinator never buffers a worker's answer set, so its first global
// result is bounded by the slowest worker's first answer, exactly like
// the in-process fan-out it mirrors.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// workerStatus returns the status of a non-200 response from a worker
// (dialStream reports one as a *wire.StatusError, the worker's
// Retry-After hint attached); 0 for any other failure.
func workerStatus(err error) int {
	var se *wire.StatusError
	if errors.As(err, &se) {
		return se.Status
	}
	return 0
}

// is4xx reports a worker's 4xx: a deterministic request error — the
// coordinator relays it verbatim instead of retrying or degrading,
// since every retry and every other worker would fail the same way for
// the same input.
func is4xx(err error) bool {
	st := workerStatus(err)
	return st >= 400 && st < 500
}

// testLineDecode, when set, is invoked for every NDJSON line decoded
// from a worker stream, with the worker's name and the line kind
// ("header", "meet", "trailer", "error"). Tests use it to observe that
// the coordinator's first merged yield happens before any worker's
// trailer has been decoded — i.e. before any stream fully drains.
var testLineDecode func(worker, kind string)

// workerStream is one worker's open NDJSON stream, consumed line by
// line as an ncq.MeetSource. The header has already been read by
// openStream; Next yields meets until the trailer. Failures — a broken
// connection, a mid-stream error line — are routed through onFail,
// which implements the partial-results policy: return the error to
// abort the whole merge (strict mode), or record it and return nil to
// end just this source (allow_partial).
type workerStream struct {
	worker Worker
	header wire.Header
	body   io.ReadCloser
	sc     *wire.LineScanner
	cancel context.CancelFunc
	done   bool
	onFail func(w Worker, err error) error
}

func (s *workerStream) Next() (ncq.CorpusMeet, bool, error) {
	if s.done {
		return ncq.CorpusMeet{}, false, nil
	}
	ln, err := s.read()
	switch {
	case err != nil:
		return s.fail(err)
	case ln.Meet != nil:
		return *ln.Meet, true, nil
	case ln.Trailer:
		s.close()
		return ncq.CorpusMeet{}, false, nil
	case ln.Error != "":
		return s.fail(errors.New(ln.Error))
	default:
		return s.fail(errors.New("second header line in stream"))
	}
}

// read decodes the next line. A stream that ends without a trailer
// means the worker died mid-answer.
func (s *workerStream) read() (*wire.Line, error) {
	ln, err := s.sc.Next()
	if err == io.EOF {
		return nil, io.ErrUnexpectedEOF
	}
	if err == nil && testLineDecode != nil {
		testLineDecode(s.worker.Name, ln.Kind())
	}
	return ln, err
}

// fail closes the stream and applies the failure policy.
func (s *workerStream) fail(err error) (ncq.CorpusMeet, bool, error) {
	s.close()
	err = fmt.Errorf("worker %s: %w", s.worker.Name, err)
	if s.onFail != nil {
		err = s.onFail(s.worker, err)
	}
	return ncq.CorpusMeet{}, false, err
}

// close releases the stream's connection; idempotent.
func (s *workerStream) close() {
	if s.done {
		return
	}
	s.done = true
	s.body.Close()
	s.cancel()
}

// openStream POSTs the query body to the worker's streaming endpoint
// and reads the header line — which the worker emits once its fan-out
// has completed and its counters are final, i.e. together with its
// first answer. Transport errors and 5xx responses are retried up to
// retries times (the read is idempotent; no meet has been consumed
// yet); a 4xx is returned immediately. The
// returned stream owns a context bounded by timeout spanning its whole
// life.
func (c *Coordinator) openStream(ctx context.Context, w Worker, body []byte) (*workerStream, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		ws, err := c.dialStream(ctx, w, body)
		if err == nil {
			return ws, nil
		}
		lastErr = err
		if is4xx(err) {
			return nil, err // retrying cannot help
		}
	}
	return nil, lastErr
}

// dialStream is one attempt of openStream.
func (c *Coordinator) dialStream(ctx context.Context, w Worker, body []byte) (*workerStream, error) {
	wctx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
	req, err := http.NewRequestWithContext(wctx, http.MethodPost,
		w.URL+"/v2/query?stream=1&header=1", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := wire.ReadError(resp.Body)
		resp.Body.Close()
		cancel()
		return nil, &wire.StatusError{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After"),
			Err: fmt.Errorf("worker %s: %s (status %d)", w.Name, msg, resp.StatusCode)}
	}
	ws := &workerStream{worker: w, body: resp.Body, sc: wire.NewLineScanner(resp.Body), cancel: cancel}
	if err := ws.readHeader(); err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

// readHeader consumes the stream's opening header line.
func (s *workerStream) readHeader() error {
	ln, err := s.read()
	if err != nil {
		return err
	}
	if !ln.Header {
		return fmt.Errorf("stream opened with a %s line, not a header", ln.Kind())
	}
	s.header = wire.Header{Node: ln.Node, Generation: ln.Generation, Total: ln.Total, Unmatched: ln.Unmatched}
	return nil
}
