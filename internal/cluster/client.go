package cluster

// The worker client: every request the coordinator sends a worker is a
// call issued by send, and every per-worker goroutine is started by
// fanOut — the deadline, the retry rule, the status mapping and the
// reply bound are each written once.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ncq/internal/wire"
)

const (
	// retries is how many more attempts a call marked retry gets after
	// a transport error or a 5xx.
	retries = 1

	// pollInterval is how often Poll refreshes the tracked generation
	// vector: how long a mutation applied to a worker directly can keep
	// serving cached coordinator results.
	pollInterval = 2 * time.Second

	// maxReply bounds a worker's JSON reply the coordinator decodes; a
	// listing costs ≈ 120 B a document. A stream is read line by line,
	// each line bounded by wire.MaxLine.
	maxReply = 16 << 20
)

// A call is one coordinator→worker request.
type call struct {
	method, path string
	body         []byte        // a JSON body, sent whole on every attempt
	upload       *http.Request // a proxied mutation: its body, length and Content-Type stream through
	retry        bool          // idempotent: attempted again after a transport error or a 5xx
}

// send issues cl to wk, each attempt under its own WorkerTimeout. A 2xx
// reply is returned with that deadline spanning its body — for a
// stream, its whole life — until the body is closed; any other status
// is a *wire.StatusError carrying the worker's message and Retry-After
// hint. Only a call marked retry is attempted again, and never after a
// 4xx: every attempt would get the same answer, and retrying a 429
// would defeat the worker's load shedding.
func (c *Coordinator) send(ctx context.Context, wk Worker, cl call) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
		resp, err := c.attempt(actx, wk, cl)
		if err == nil {
			resp.Body = cancelOnClose{resp.Body, cancel}
			return resp, nil
		}
		cancel()
		if !cl.retry || attempt == retries || is4xx(err) || ctx.Err() != nil {
			return nil, err
		}
	}
}

func (c *Coordinator) attempt(ctx context.Context, wk Worker, cl call) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, cl.method, wk.URL+cl.path, nil)
	if err != nil {
		return nil, err
	}
	if cl.body != nil {
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(cl.body)), int64(len(cl.body))
		req.Header.Set("Content-Type", "application/json")
	}
	if up := cl.upload; up != nil {
		req.Body, req.ContentLength = up.Body, up.ContentLength
		if ct := up.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
	}
	resp, err := c.client.Do(req)
	if err != nil || resp.StatusCode < 300 {
		return resp, err
	}
	defer resp.Body.Close()
	return nil, &wire.StatusError{Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After"),
		Err: &workerReply{worker: wk.Name, status: resp.StatusCode, msg: wire.ReadError(resp.Body)}}
}

// cancelOnClose releases an attempt's deadline with the reply it spans.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelOnClose) Close() error {
	defer b.cancel()
	return b.ReadCloser.Close()
}

// workerReply is a worker's answer other than 2xx; the document proxy
// relays its status and message as they came.
type workerReply struct {
	worker string
	status int
	msg    string
}

func (e *workerReply) Error() string {
	return fmt.Sprintf("worker %s: %s (status %d)", e.worker, e.msg, e.status)
}

// workerStatus returns the status of a worker's non-2xx reply; 0 for
// any other failure.
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
func is4xx(err error) bool { return workerStatus(err)/100 == 4 }

// getJSON GETs path from wk, once, and decodes the reply into v,
// reading at most maxReply bytes of it.
func (c *Coordinator) getJSON(ctx context.Context, wk Worker, path string, v any) error {
	resp, err := c.send(ctx, wk, call{method: http.MethodGet, path: path})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	lr := &io.LimitedReader{R: resp.Body, N: maxReply}
	if err = json.NewDecoder(lr).Decode(v); err != nil && lr.N == 0 {
		err = fmt.Errorf("worker %s: %s reply exceeds %d bytes", wk.Name, path, maxReply)
	}
	return err
}

// fanOut runs fn against every worker in ws at once and returns the
// results in worker order.
func fanOut[T any](ws []Worker, fn func(Worker) T) []T {
	out := make([]T, len(ws))
	var wg sync.WaitGroup
	for i, wk := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(wk)
		}()
	}
	wg.Wait()
	return out
}
