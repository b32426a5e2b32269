package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ncq"
)

var goldenMeet = ncq.CorpusMeet{Source: "bib", Shard: 2, Meet: ncq.Meet{
	Node: 4, Tag: "book", Path: "/bib/book", Witnesses: []ncq.NodeID{5, 9}, Distance: 2}}

const goldenResult = `{"mode":"terms","meets":[{"source":"bib","shard":2,"node":4,"tag":"book","path":"/bib/book","witnesses":[5,9],"distance":2}],"unmatched":1,"truncated":true}`

// TestGoldenBytes pins the protocol's bytes against literals captured
// from the output of the commit before internal/wire existed
// (internal/server's and internal/cluster's own encoders, same
// values), so an encoder change has a fixed target. Note the two
// escaping regimes: stream lines go through json.Marshal (HTML-escaped),
// envelopes through an Encoder with SetEscapeHTML(false).
func TestGoldenBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	header := func() Header { return Header{Node: "w1", Generation: 7, Total: 3, Unmatched: 1} }
	sw := NewStreamWriter(rec, httptest.NewRequest("POST", "/v2/query?stream=1&header=1", nil), header, nil, nil)
	odd := ncq.CorpusMeet{Source: "a<b>&c", Meet: ncq.Meet{Tag: "t", Path: "/t"}}
	sw.Meet(&Answer{CorpusMeet: goldenMeet})
	sw.Meet(&Answer{CorpusMeet: odd})
	sw.Fail(http.StatusBadGateway, errors.New(`worker "w1": a<b & c`))
	sw.Trailer(Trailer{Unmatched: 1, Truncated: true, NextCursor: "djIgMQ", TookMS: 1.75})
	sw.Trailer(Trailer{})
	sw.Trailer(Trailer{Unmatched: 1, Truncated: true, Incomplete: true, TookMS: 1.75,
		WorkerErrors: map[string]string{"w2": "worker w2: unexpected EOF", "w1": "x"}})
	wantStream := `{"header":true,"node":"w1","generation":7,"total":3,"unmatched":1}
{"meet":{"source":"bib","shard":2,"node":4,"tag":"book","path":"/bib/book","witnesses":[5,9],"distance":2}}
{"meet":{"source":"a\u003cb\u003e\u0026c","node":0,"tag":"t","path":"/t","witnesses":null,"distance":0}}
{"error":"worker \"w1\": a\u003cb \u0026 c"}
{"trailer":true,"unmatched":1,"truncated":true,"next_cursor":"djIgMQ","took_ms":1.75}
{"trailer":true,"unmatched":0,"took_ms":0}
{"trailer":true,"unmatched":1,"truncated":true,"incomplete":true,"worker_errors":{"w1":"x","w2":"worker w2: unexpected EOF"},"took_ms":1.75}
`
	if got := rec.Body.String(); got != wantStream {
		t.Errorf("stream bytes:\n got %s\nwant %s", got, wantStream)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" || rec.Header().Get("X-NCQ-Cache") != "bypass" {
		t.Errorf("stream headers = %v", rec.Header())
	}

	result, err := json.Marshal(&Result{Mode: "terms", Meets: []ncq.CorpusMeet{goldenMeet}, Unmatched: 1, Truncated: true})
	if err != nil || string(result) != goldenResult {
		t.Errorf("result bytes: %s (%v)", result, err)
	}
	// A query-language answer is the same meets under another mode; the
	// text a projection asked for rides in "projected", on a result and
	// on a stream line alike.
	projected := []ncq.CorpusMeet{
		{Source: "bib", Meet: ncq.Meet{Node: 3, Tag: "year", Path: "/bib/year", Projected: &ncq.Projection{Value: "1999"}}},
		{Source: "bib", Shard: 2, Meet: ncq.Meet{Node: 4, Tag: "x", Path: "/x", Witnesses: []ncq.NodeID{1, 2}, Distance: 3,
			Projected: &ncq.Projection{XML: "<x/>"}}}}
	wantMeets := []string{
		`{"source":"bib","node":3,"tag":"year","path":"/bib/year","witnesses":null,"distance":0,"projected":{"value":"1999"}}`,
		`{"source":"bib","shard":2,"node":4,"tag":"x","path":"/x","witnesses":[1,2],"distance":3,"projected":{"xml":"\u003cx/\u003e"}}`}
	queryResult, _ := json.Marshal(&Result{Mode: "query", Meets: projected})
	if want := `{"mode":"query","meets":[` + wantMeets[0] + "," + wantMeets[1] + `]}`; string(queryResult) != want {
		t.Errorf("query result bytes: %s", queryResult)
	}
	for i := range projected {
		if got, want := string(AppendMeetLine(nil, &projected[i])), `{"meet":`+wantMeets[i]+"}\n"; got != want {
			t.Errorf("projected meet line: %s", got)
		}
	}

	envelopes := []struct {
		name string
		v    any
		want string
	}{
		{"single", Response{Cached: true, Generation: 3, TookMS: 0.5, Truncated: true, NextCursor: "djIgMQ", Result: result},
			`{"cached":true,"generation":3,"took_ms":0.5,"truncated":true,"next_cursor":"djIgMQ","result":` + goldenResult + "}\n"},
		{"single, minimal", Response{Generation: 3, TookMS: 2, Result: result},
			`{"cached":false,"generation":3,"took_ms":2,"result":` + goldenResult + "}\n"},
		{"single, partial", Response{Generation: 3, TookMS: 0.5, Truncated: true, Incomplete: true,
			WorkerErrors: map[string]string{"w2": "boom"}, Result: result},
			`{"cached":false,"generation":3,"took_ms":0.5,"truncated":true,"incomplete":true,"worker_errors":{"w2":"boom"},"result":` + goldenResult + "}\n"},
		{"batch", BatchResponse{Generation: 3, TookMS: 0.5, Results: []BatchItem{
			{Status: 200, Cached: true, Truncated: true, NextCursor: "djIgMQ", Result: result},
			{Status: 404, Error: `ncq: corpus: unknown document "ghost"`}}},
			`{"generation":3,"took_ms":0.5,"results":[{"status":200,"cached":true,"truncated":true,"next_cursor":"djIgMQ","result":` + goldenResult + `},{"status":404,"error":"ncq: corpus: unknown document \"ghost\""}]}` + "\n"},
	}
	for _, e := range envelopes {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, e.v)
		if got := rec.Body.String(); got != e.want {
			t.Errorf("%s envelope:\n got %s\nwant %s", e.name, got, e.want)
		}
	}
	rec = httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, "invalid request: %v", fmt.Errorf("a<b & %q", "c"))
	if got, want := rec.Body.String(), `{"error":"invalid request: a<b & \"c\""}`+"\n"; got != want ||
		rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("error envelope: %d %s %v", rec.Code, got, rec.Header())
	}
	if msg := ReadError(rec.Body); msg != `invalid request: a<b & "c"` {
		t.Errorf("ReadError = %q", msg)
	}
}

// decodeBody runs body through Decode, failing t on a refusal.
func decodeBody(t testing.TB, body string) *Body {
	t.Helper()
	rec := httptest.NewRecorder()
	b, _, cancel, ok := Decode(rec, httptest.NewRequest("POST", "/v2/query", strings.NewReader(body)))
	if !ok {
		t.Fatalf("%s: refused: %s", body, rec.Body)
	}
	cancel()
	return b
}

// TestQueryRequestLowering: a body's fields land on the library's
// request, its options built as the fluent calls build them and absent
// when the body sets none, and what a coordinator re-sends to its
// workers (QueryOf, pinned to the byte) decodes to the request it was
// sent.
func TestQueryRequestLowering(t *testing.T) {
	cases := []struct {
		body string
		want ncq.Request
		sent string
	}{
		{`{"doc":"d","terms":["a","b"],"exclude_root":true,"exclude":["//x"],"restrict":["//y"],"nearest":true,` +
			`"within":3,"max_lift":2,"limit":5,"vague":{"max_slack":1},"cursor":"c","allow_partial":true}`,
			ncq.Request{Doc: "d", Terms: []string{"a", "b"}, Limit: 5, Cursor: "c", Vague: &ncq.Vague{MaxSlack: 1}, AllowPartial: true,
				Options: ncq.ExcludeRoot().ExcludePattern("//x").Restrict("//y").Nearest().Within(3).MaxLift(2)},
			`{"doc":"d","terms":["a","b"],"limit":5,"cursor":"c","vague":{"max_slack":1},"allow_partial":true,` +
				`"exclude_root":true,"exclude":["//x"],"restrict":["//y"],"nearest":true,"within":3,"max_lift":2}`},
		{`{"doc":"d","query":"  SELECT tag(e) FROM //y AS e ","limit":2}`,
			ncq.Request{Doc: "d", Query: "  SELECT tag(e) FROM //y AS e ", Limit: 2},
			`{"doc":"d","query":"  SELECT tag(e) FROM //y AS e ","limit":2}`},
		{`{"terms":["a"],"within":0,"exclude":[]}`, ncq.Request{Terms: []string{"a"}}, `{"terms":["a"]}`},
	}
	for _, tc := range cases {
		got := decodeBody(t, tc.body).Request
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s lowered to %+v, want %+v", tc.body, got, tc.want)
		}
		q := QueryOf(&got)
		raw, err := json.Marshal(&q)
		if err != nil || string(raw) != tc.sent {
			t.Fatalf("%s re-sent as %s (%v), want %s", tc.body, raw, err, tc.sent)
		}
		if back := decodeBody(t, string(raw)).Request; !reflect.DeepEqual(back, got) {
			t.Errorf("%s re-sent as %s decodes to %+v, want %+v", tc.body, raw, back, got)
		}
	}
}

// TestQuerySchemaNamed: the body is the library's own types, so a field
// added to ncq.Request or ncq.OptionSpec is a protocol field, and it
// must name itself on the wire in snake case, or opt out with "-",
// rather than travel under its Go name.
func TestQuerySchemaNamed(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[ncq.Request](), reflect.TypeFor[ncq.OptionSpec]()} {
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name != "-" && name != strings.ToLower(name) {
				t.Errorf("%s.%s has wire name %q", typ, f.Name, name)
			}
		}
	}
}

// TestNegativeBoundStatus: the library refuses the bounds Lower
// refuses, and a library caller's refusal maps to 400 like the wire's.
func TestNegativeBoundStatus(t *testing.T) {
	db, err := ncq.OpenString(`<a><b>x</b><c>y</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*ncq.Options{ncq.Within(-1), ncq.ExcludeRoot().MaxLift(-1)} {
		_, err := db.Run(context.Background(), ncq.Request{Terms: []string{"x", "y"}, Options: o})
		if err == nil || StatusOf(err) != http.StatusBadRequest {
			t.Errorf("%+v: err = %v, status %d; want 400", o.Spec(), err, StatusOf(err))
		}
		if q := QueryOf(&ncq.Request{Terms: []string{"x"}, Options: o}); q.Lower() == nil {
			t.Errorf("%+v: Lower accepted %+v", o.Spec(), q)
		}
	}
}

// FuzzDecodeQuery guards the body every role takes from a client:
// arbitrary bytes never panic Decode, and every query it lowers — inline
// or a batch item — is one the library accepts and, re-sent the way a
// coordinator re-sends it to a worker (QueryOf), decodes to a request of
// the same canonical form: the hop loses nothing a worker runs.
func FuzzDecodeQuery(f *testing.F) {
	for _, s := range []string{
		`{"doc":"d","terms":["a","b"],"exclude_root":true,"exclude":["//x"],"restrict":["//y"],"nearest":true,"within":3,"max_lift":2,"limit":5,"vague":{"max_slack":1,"expand":true},"cursor":"c","allow_partial":true}`,
		`{"query":"SELECT tag(e) FROM //y AS e","limit":2,"timeout_ms":9}`,
		`{"batch":[{"terms":["x"],"restrict":["/a","//b"]},{"terms":[""]},{"query":" "}]}`,
		`{"terms":["x"],"within":-1}`, `{"terms":["x"],"exclude":[],"vague":{"max_slack":0}}`, `{"terms":["\u00ff"],"doc":"\ud800"}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		b, _, cancel, ok := Decode(rec, httptest.NewRequest("POST", "/v2/query", strings.NewReader(body)))
		if !ok {
			return
		}
		cancel()
		queries := []Query{b.Query}
		if len(b.Batch) > 0 {
			queries = b.Batch
		}
		for _, q := range queries {
			if q.Lower() != nil {
				continue
			}
			if err := q.Request.Validate(); err != nil {
				t.Fatalf("%s: lowered to a request the library refuses: %v", body, err)
			}
			resent := QueryOf(&q.Request)
			raw, err := json.Marshal(&resent)
			if err != nil {
				t.Fatal(err)
			}
			back := decodeBody(t, string(raw)).Request
			if back.Canonical() != q.Request.Canonical() || back.AllowPartial != q.AllowPartial {
				t.Fatalf("%s re-sent as %s: canonical %q, want %q", body, raw, back.Canonical(), q.Request.Canonical())
			}
		}
	})
}

func TestDecodeDeadline(t *testing.T) {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v2/query", strings.NewReader(`{"terms":["x"],"timeout_ms":250}`))
	req, ctx, cancel, ok := Decode(rec, r)
	if !ok {
		t.Fatalf("rejected: %s", rec.Body)
	}
	defer cancel()
	if _, has := ctx.Deadline(); !has || req.TimeoutMS != 250 || len(req.Terms) != 1 {
		t.Errorf("req = %+v, deadline set = %t", req, has)
	}
}

func TestLineScanner(t *testing.T) {
	big := `{"meet":{"source":"s","node":1,"tag":"t","path":"/t","witnesses":[` +
		strings.TrimSuffix(strings.Repeat("7,", 1<<20), ",") + `],"distance":1}}`
	sc := NewLineScanner(strings.NewReader(
		`{"header":true,"node":"w","generation":2,"total":1,"unmatched":3}` + "\n" + big + "\n" +
			`{"trailer":true,"unmatched":3,"truncated":true,"next_cursor":"c","took_ms":2.5}` + "\n"))
	var kinds []string
	for {
		ln, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ln.Kind())
		switch ln.Kind() {
		case "header":
			if ln.Node != "w" || ln.Generation != 2 || ln.Total != 1 || ln.Unmatched != 3 {
				t.Errorf("header = %+v", ln)
			}
		case "meet":
			if len(ln.Meet.Witnesses) != 1<<20 {
				t.Errorf("meet has %d witnesses", len(ln.Meet.Witnesses))
			}
		case "trailer":
			if ln.Unmatched != 3 || !ln.Truncated || ln.NextCursor != "c" || ln.TookMS != 2.5 || ln.Node != "" {
				t.Errorf("trailer = %+v", ln)
			}
		}
	}
	if got := strings.Join(kinds, " "); got != "header meet trailer" {
		t.Errorf("kinds = %s", got)
	}

	// A line over MaxLine is an error, not a truncated record.
	over := NewLineScanner(io.MultiReader(strings.NewReader(`{"error":"`),
		io.LimitReader(zeros{}, MaxLine), strings.NewReader(`"}`+"\n")))
	if _, err := over.Next(); err == nil || err == io.EOF {
		t.Errorf("oversized line: %v", err)
	}
}

// zeros reads as an endless run of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

var rejectedLines = []string{
	``, `null`, `{}`, `[]`, `1`, `{"meet":null}`, `{"meet":{}}`, `{"meet":{"node":1}}`, `{"unknown":1}`,
	`{"trailer":false}`, `{"error":""}`, `{"meet":{"path":"/a"}`, `{"meet":{"path":"/a"}} x`,
	`{"meet":{"path":"/a"},"trailer":true}`, `{"header":true,"error":"x"}`,
	`{"meet":{"path":"/a"},"meet":{"tag":"b"}}`, `{"meet":{"path":"/a"},"MEET":{"tag":"b"}}`,
	`{"meet":{"path":"/a"},"meet":{"tag":"b"}}`, `{"meet":{"path":"/a","node":1,"node":2}}`,
	`{"trailer":true,"worker_errors":{"w":"a","w":"b"}}`, `{"trailer":true,"trailer":true}`,
}

func TestDecodeLineRejects(t *testing.T) {
	for _, s := range rejectedLines {
		var ln Line
		if err := ln.decode([]byte(s)); err == nil {
			t.Errorf("%s: decoded as a %s line", s, ln.Kind())
		}
	}
	// Same keys in different objects, and key-like strings in value
	// position, are not duplicates.
	for _, s := range []string{
		`{"meet":{"source":"node","node":1,"tag":"node","path":"/node","witnesses":[1,1],"distance":0}}`,
		`{"trailer":true,"worker_errors":{"trailer":"x","error":"y"},"took_ms":1}`,
		`{"error":"\"error\":{"}`,
	} {
		var ln Line
		if err := ln.decode([]byte(s)); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

// FuzzDecodeLine guards the one trust boundary that takes bytes from
// another process mid-answer: arbitrary input never panics; whatever
// decodes is exactly one record; a decoded meet re-encodes to a line
// that decodes to the same value; and doubling a decodable line's
// members — the duplicate-key line — is always rejected.
func FuzzDecodeLine(f *testing.F) {
	for _, s := range rejectedLines {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"header":true,"node":"w1","generation":7,"total":3,"unmatched":1}`))
	f.Add([]byte(`{"meet":{"source":"bib","shard":2,"node":4,"tag":"book","path":"/bib/book","witnesses":[5,9],"distance":2}}`))
	f.Add([]byte(`{"meet":{"source":"bib","node":4,"tag":"title","path":"/bib/title","witnesses":null,"distance":0,"projected":{"value":"How to Hack"}}}`))
	f.Add([]byte(`{"meet":{"source":"bib","node":4,"tag":"year","path":"/bib/year","witnesses":null,"distance":0,"projected":{"value":"R\u0026D \u2028 \ufffd","xml":"\u003cyear\u003e1999\u003c/year\u003e"}}}`))
	f.Add([]byte(`{"trailer":true,"unmatched":1,"incomplete":true,"worker_errors":{"w1":"x"},"took_ms":1.75}`))
	f.Add([]byte(`{"error":"worker \"w1\": a<b"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ln Line
		if err := ln.decode(data); err != nil {
			return
		}
		records := 0
		for _, present := range []bool{ln.Meet != nil, ln.Header, ln.Trailer, ln.Error != ""} {
			if present {
				records++
			}
		}
		if records != 1 {
			t.Fatalf("%q decoded as %d records", data, records)
		}
		if ln.Meet != nil {
			again, err := json.Marshal(meetLine{Meet: ln.Meet})
			if err != nil {
				t.Fatalf("re-encode %q: %v", data, err)
			}
			var back Line
			if err := back.decode(again); err != nil || !reflect.DeepEqual(back.Meet, ln.Meet) {
				t.Fatalf("%q re-encoded to %q, which decodes to %+v (%v)", data, again, back.Meet, err)
			}
		}
		members := bytes.TrimSpace(data)
		members = bytes.TrimSpace(members[1 : len(members)-1])
		doubled := fmt.Sprintf("{%s,%s}", members, members)
		if err := new(Line).decode([]byte(doubled)); err == nil {
			t.Fatalf("duplicate-key line %q decoded", doubled)
		}
	})
}
