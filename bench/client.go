package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the closed-loop load generator: one connection, the next
// request leaves only after the previous reply's last byte.
type client struct {
	http *http.Client
	base string
	rd   *bufio.Reader
	body bytes.Buffer // reused reply buffer
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		base: base,
		rd:   bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what one operation came back with.
type reply struct {
	first, last time.Duration // since send: first line (or first body byte), last byte
	cache       string        // X-NCQ-Cache
	meets       int
	payload     []byte // only when keep: valid until the next call
}

var (
	meetPrefix    = []byte(`{"meet":`)
	trailerPrefix = []byte(`{"trailer":true`)
	sourceKey     = []byte(`{"source":`)
)

// do sends one query and reads the whole reply. keep retains the meets
// payload for a byte comparison (warm-up round only).
func (c *client) do(ctx context.Context, q query, body []byte, keep bool) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+q.path(), bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{cache: resp.Header.Get("X-NCQ-Cache")}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	c.body.Reset()
	if q.stream {
		err = c.readStream(resp.Body, start, keep, &r)
	} else {
		err = c.readEnvelope(resp.Body, start, keep, &r)
	}
	return r, err
}

// readStream consumes NDJSON: meet lines, then exactly one trailer.
func (c *client) readStream(body io.Reader, start time.Time, keep bool, r *reply) error {
	c.rd.Reset(body)
	trailer := false
	for {
		line, err := c.rd.ReadSlice('\n')
		if r.first == 0 && len(line) > 0 {
			r.first = time.Since(start)
		}
		if len(line) > 0 {
			switch {
			case trailer:
				return fmt.Errorf("line after the trailer: %.80s", line)
			case bytes.HasPrefix(line, meetPrefix):
				r.meets++
				if keep {
					c.body.Write(line)
				}
			case bytes.HasPrefix(line, trailerPrefix):
				trailer = true
			default:
				return fmt.Errorf("unexpected stream line: %.120s", line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	r.last = time.Since(start)
	if !trailer {
		return fmt.Errorf("stream ended without a trailer after %d meets", r.meets)
	}
	r.payload = c.body.Bytes()
	return nil
}

// readEnvelope consumes a JSON envelope; meets are counted by their
// leading key, so the timed path decodes nothing.
func (c *client) readEnvelope(body io.Reader, start time.Time, keep bool, r *reply) error {
	var one [1]byte
	if _, err := io.ReadFull(body, one[:]); err != nil {
		return fmt.Errorf("empty reply: %w", err)
	}
	r.first = time.Since(start)
	c.body.WriteByte(one[0])
	if _, err := c.body.ReadFrom(body); err != nil {
		return err
	}
	r.last = time.Since(start)
	r.meets = bytes.Count(c.body.Bytes(), sourceKey)
	if keep {
		var env struct {
			Result struct {
				Meets json.RawMessage `json:"meets"`
			} `json:"result"`
		}
		if err := json.Unmarshal(c.body.Bytes(), &env); err != nil {
			return fmt.Errorf("decode envelope: %w", err)
		}
		r.payload = env.Result.Meets
	}
	return nil
}

// put uploads a document and returns the latency to the last byte.
func (c *client) put(ctx context.Context, d document) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+d.target(), bytes.NewReader(d.xml))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return took, fmt.Errorf("PUT %s: status %d: %s", d.name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return took, nil
}
