package ncq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/datagen"
	"ncq/internal/server"
)

// serve sends one request to h and returns the recorded response;
// chunked drops the Content-Length, as a streaming client would.
func serve(t *testing.T, h http.Handler, method, path, contentType string, body []byte, chunked bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if chunked {
		req.ContentLength = -1
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
	}
	return rec
}

// queryResult posts body to /v2/query and returns the "result" member.
func queryResult(t *testing.T, h http.Handler, body string) json.RawMessage {
	t.Helper()
	var resp struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(serve(t, h, "POST", "/v2/query", "", []byte(body), false).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Result
}

// TestServingPathLeavesTokenIndexUnbuilt pins from the outside that no
// upload door and no request builds a member's token postings — an
// expanded one included, with or without a thesaurus loaded.
func TestServingPathLeavesTokenIndexUnbuilt(t *testing.T) {
	xml := []byte(datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1996, YearTo: 1999, PubsPerVenueYear: 10}).XMLString())
	db, err := ncq.Open(bytes.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := db.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	srv := server.New(nil)
	h := srv.Handler()
	serve(t, h, "PUT", "/v1/docs/plain", "", xml, false)
	serve(t, h, "PUT", "/v1/docs/buffered?shards=4", "", xml, false)
	serve(t, h, "PUT", "/v1/docs/chunked?shards=4", "", xml, true)
	serve(t, h, "PUT", "/v1/docs/snap", server.SnapshotContentType, snap.Bytes(), false)
	if got := srv.Corpus().ShardCount("buffered"); got != 4 {
		t.Fatalf("buffered upload has %d shards, want 4", got)
	}

	built := func() (names []string) {
		for _, name := range srv.Corpus().Names() {
			dbs, _ := srv.Corpus().Shards(name)
			for _, db := range dbs {
				if db.TokenIndexBuilt() {
					names = append(names, name)
				}
			}
		}
		return names
	}
	const terms = `"terms":["ICDE","1999"],"exclude_root":true`
	for _, body := range []string{
		`{` + terms + `}`,
		`{` + terms + `,"restrict":["/dblp/inprocedings"],"vague":{"max_slack":1}}`,
		`{` + terms + `,"vague":{"expand":true}}`,
		`{"query":"SELECT meet(a, y) FROM //cdata AS a, //cdata AS y WHERE a CONTAINS 'ICDE' AND y CONTAINS '1999'"}`,
		`{"doc":"plain","query":"SELECT value(e) FROM //year AS e WHERE e CONTAINS '1999'","limit":3}`,
	} {
		if res := queryResult(t, h, body); !bytes.Contains(res, []byte(`"meets":[{`)) {
			t.Errorf("%s answered no meets: %s", body, res)
		}
	}
	if lines := serve(t, h, "POST", "/v2/query?stream=1", "", []byte(`{`+terms+`}`), false).Body.String(); !strings.Contains(lines, `{"meet":{`) {
		t.Errorf("stream answered no meet lines: %s", lines)
	}
	for _, path := range []string{"/v1/docs/plain", "/v1/docs/buffered", "/v1/docs", "/v1/stats"} {
		if body := serve(t, h, "GET", path, "", nil, false).Body.String(); strings.Contains(body, "terms") {
			t.Errorf("GET %s still reports terms: %s", path, body)
		}
	}
	if names := built(); len(names) != 0 {
		t.Fatalf("serving built the token postings of %v", names)
	}

	// With a thesaurus loaded, an expanded request broadens through the
	// same memoized substring locate: it answers what the literal
	// request for the synonym does, and builds no postings either.
	serve(t, h, "PUT", "/v1/docs/cwi", "", []byte(`<bib><article><author>Ben Bit</author><year>1999</year></article>`+
		`<book><author>Bob Byte</author><year>1999</year></book></bib>`), false)
	srv.Corpus().SetThesaurus(ncq.NewThesaurus().Add("binary", "Bit").Add("ICDE", "VLDB"))
	want := queryResult(t, h, `{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true}`)
	got := queryResult(t, h, `{"doc":"cwi","terms":["binary","1999"],"exclude_root":true,"vague":{"expand":true}}`)
	if !bytes.Contains(want, []byte(`"tag":"article"`)) || !bytes.Equal(got, want) {
		t.Errorf("expanded request answered %s, want %s", got, want)
	}
	if res := queryResult(t, h, `{`+terms+`,"vague":{"expand":true}}`); !bytes.Contains(res, []byte(`"meets":[{`)) {
		t.Errorf("expanded request answered no meets: %s", res)
	}
	if names := built(); len(names) != 0 {
		t.Errorf("expanded requests built the token postings of %v", names)
	}
}

// TestExpandWithoutThesaurusIsNoOp pins OPERATIONS.md's expand row:
// "expand" changes nothing for a term the thesaurus does not name —
// with no thesaurus loaded, or under one that names none of the terms.
// In particular it does not trade `contains` for whole-token matching,
// under which "199" and "html", or "landscape" in "landscapes" and
// "sun" in "sunset", would match nothing.
func TestExpandWithoutThesaurusIsNoOp(t *testing.T) {
	for _, c := range []struct {
		name, doc, thesaurus string
		terms                []string
	}{
		{"no thesaurus", `<bib><a><y>1999</y><u>x.html</u></a><a><y>1998</y><u>y.html</u></a></bib>`, "", []string{"199", "html"}},
		{"a thesaurus that names no term", `<r><a><t>landscape photo</t><u>sunset</u></a><b><t>landscapes</t><u>sunrise</u></b></r>`,
			"dawn, sunrise", []string{"landscape", "sun"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var th *ncq.Thesaurus
			if c.thesaurus != "" {
				var err error
				if th, err = ncq.ParseThesaurus(strings.NewReader(c.thesaurus)); err != nil {
					t.Fatal(err)
				}
			}
			plain := ncq.Request{Terms: c.terms, Options: ncq.ExcludeRoot(), Limit: 1}
			expand := plain
			expand.Vague = &ncq.Vague{Expand: true}

			db, err := ncq.OpenString(c.doc)
			if err != nil {
				t.Fatal(err)
			}
			corpus := ncq.NewCorpus()
			if err := corpus.Add("doc", db); err != nil {
				t.Fatal(err)
			}
			corpus.SetThesaurus(th)
			for name, q := range map[string]ncq.Querier{"Database": db, "Corpus": corpus} {
				want, err := q.Run(context.Background(), plain)
				if err != nil {
					t.Fatal(err)
				}
				got, err := q.Run(context.Background(), expand)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Meets) != 1 || !want.Truncated {
					t.Fatalf("%s: control answered %+v", name, want)
				}
				// The cursor and the slack histogram say which mode asked;
				// the answer must not.
				if !reflect.DeepEqual(got.Meets, want.Meets) || got.Truncated != want.Truncated ||
					got.Unmatched != want.Unmatched || !reflect.DeepEqual(got.UnmatchedNodes, want.UnmatchedNodes) {
					t.Errorf("%s: with expand %+v, without %+v", name, got, want)
				}
			}
			want, err := db.Locate(context.Background(), nil, c.terms...)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := db.Locate(context.Background(), th, c.terms...); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("Database.Locate: with the thesaurus %v, without %v (%v)", got, want, err)
			}

			srv := server.New(nil)
			h := srv.Handler()
			serve(t, h, "PUT", "/v1/docs/doc", "", []byte(c.doc), false)
			srv.Corpus().SetThesaurus(th)
			terms, _ := json.Marshal(c.terms)
			head := `{"terms":` + string(terms) + `,"exclude_root":true`
			for _, tail := range []string{`}`, `,"limit":1}`} {
				want := queryResult(t, h, head+tail)
				got := queryResult(t, h, head+`,"vague":{"expand":true}`+tail)
				if !bytes.Contains(want, []byte(`"meets":[{`)) || !bytes.Equal(got, want) {
					t.Errorf("/v2/query: with expand %s, without %s", got, want)
				}
			}
			// The stream header carries total and unmatched; the meet lines follow.
			lines := func(body string) []string {
				all := strings.Split(serve(t, h, "POST", "/v2/query?stream=1&header=1", "", []byte(body), false).Body.String(), "\n")
				return all[:len(all)-2] // all but the trailer (took_ms) and the final newline
			}
			if want, got := lines(head+`}`), lines(head+`,"vague":{"expand":true}}`); len(want) != 3 || !reflect.DeepEqual(got, want) {
				t.Errorf("/v2/query?stream=1: with expand %q, without %q", got, want)
			}
			if dbs, _ := srv.Corpus().Shards("doc"); db.TokenIndexBuilt() || dbs[0].TokenIndexBuilt() {
				t.Error("expand built the token postings")
			}
		})
	}
}
