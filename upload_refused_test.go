package ncq_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/datagen"
	"ncq/internal/leakcheck"
	"ncq/internal/server"
)

// failAfter hands over the first n bytes of a body, then fails.
type failAfter struct {
	r io.Reader
	n int
}

var errReset = errors.New("connection reset mid-body")

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errReset
	}
	n, err := f.r.Read(p[:min(len(p), f.n)])
	f.n -= n
	return n, err
}

// TestRefusedUploadsLeaveNoBuilder refuses uploads through every door
// OpenSharded has — whole, four shards buffered, four shards chunked —
// while their index builders run beside the parse: the DBLP and
// multimedia bodies cut short at fifty offsets, a reader that fails
// mid-body, a second root after a completed one, and a body over the
// server's limit through PUT. Each is refused with its error and leaves
// no builder goroutine behind. (That an aborted builder keeps
// no scratch is internal/fulltext's TestRefusedLoadsLeaveNothing.)
func TestRefusedUploadsLeaveNoBuilder(t *testing.T) {
	bodies := map[string]string{
		"dblp":       datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1994, YearTo: 1999, PubsPerVenueYear: 20}).XMLString(),
		"multimedia": datagen.Multimedia(datagen.MultimediaConfig{Seed: 1, Items: 1000, MaxProbeDistance: 20}).XMLString(),
	}
	type refusal struct {
		label string
		body  func() io.Reader
		size  int64
		want  error // nil: any error
	}
	var cases []refusal
	for name, src := range bodies {
		for i := 1; i <= 50; i++ {
			cut := src[:len(src)*i/51]
			cases = append(cases, refusal{fmt.Sprintf("%s cut at %d", name, len(cut)), func() io.Reader { return strings.NewReader(cut) }, int64(len(cut)), nil})
		}
		cases = append(cases,
			refusal{name + " failing mid-body", func() io.Reader { return &failAfter{strings.NewReader(src), len(src) * 2 / 3} }, int64(len(src)), errReset},
			refusal{name + " with a second root", func() io.Reader { return strings.NewReader(src + src) }, int64(2 * len(src)), nil})
	}
	base := leakcheck.Take()
	for _, c := range cases {
		for _, door := range []struct {
			name string
			size int64
			k    int
		}{{"whole", c.size, 1}, {"4 buffered", c.size, 4}, {"4 chunked", -1, 4}} {
			dbs, err := ncq.OpenSharded(context.Background(), c.body(), door.size, door.k)
			if err == nil || dbs != nil {
				t.Fatalf("%s, %s: %d databases, err %v", c.label, door.name, len(dbs), err)
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Errorf("%s, %s: err %v, want %v", c.label, door.name, err, c.want)
			}
			if base.Check(t, 0, c.label+", "+door.name); t.Failed() {
				return // a leaked builder never exits: every later check would wait it out
			}
		}
	}

	src := []byte(bodies["dblp"])
	h := server.New(nil, server.WithMaxBody(int64(len(src)/2))).Handler()
	for _, put := range []struct {
		name, path string
		chunked    bool
	}{{"whole", "/v1/docs/doc", false}, {"4 buffered", "/v1/docs/doc?shards=4", false}, {"4 chunked", "/v1/docs/doc?shards=4", true}} {
		req := httptest.NewRequest("PUT", put.path, bytes.NewReader(src))
		if put.chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("PUT over the limit, %s: status %d, want 413: %s", put.name, rec.Code, rec.Body)
		}
		base.Check(t, 0, "PUT over the limit, "+put.name)
	}
}

// TestPathBoundRefusalCarriesOffset refuses a document whose rendered
// paths pass pathsum.MaxPathBytes — ten-byte names nested 4,000 deep,
// 48 KB of input — and holds the loader's refusal to the parser's form:
// it names the byte offset just past the start tag that crossed the
// bound.
func TestPathBoundRefusalCarriesOffset(t *testing.T) {
	const tag = "<nnnnnnnnnn>"
	_, err := ncq.OpenString(strings.Repeat(tag, 4000))
	var at int
	if err == nil || !strings.Contains(err.Error(), "past 67108864 bytes") {
		t.Fatalf("accepted or refused for another reason: %v", err)
	}
	if _, scanErr := fmt.Sscanf(err.Error(), "ncq: xmltree: parse at byte %d: ", &at); scanErr != nil || at%len(tag) != 0 || at == 0 {
		t.Errorf("the refusal names no offset past a start tag: %v", err)
	}
}
