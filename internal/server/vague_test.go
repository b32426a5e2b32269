package server

// HTTP-surface tests for the vague-constraints mode: the zero spec
// sharing the exact mode's cache entries (the canonical-encoding
// invariant observed through X-NCQ-Cache), relaxed answers over the
// batch and streaming forms, the request-shape rejections, and the
// ncq_vague_requests_total / ncq_vague_relaxations_total series.

import (
	"net/http"
	"strings"
	"testing"

	"ncq"
)

// TestQueryV2VagueZeroSpecSharesCache pins the zero-spec equivalence
// at the wire: {"vague":{"max_slack":0}} canonicalises like the plain
// request, so the second of the pair is a cache hit on the first —
// whichever order they arrive in — and the result payloads are
// byte-identical.
func TestQueryV2VagueZeroSpecSharesCache(t *testing.T) {
	exact := `{"terms":["Bit","1999"],"exclude_root":true}`
	zero := `{"terms":["Bit","1999"],"exclude_root":true,"vague":{"max_slack":0,"expand":false}}`
	for _, order := range [][2]string{{exact, zero}, {zero, exact}} {
		s := newTestServer(t)
		loadDocs(t, s)
		first := do(t, s, "POST", "/v2/query", order[0])
		second := do(t, s, "POST", "/v2/query", order[1])
		if first.Code != http.StatusOK || second.Code != http.StatusOK {
			t.Fatalf("status = %d / %d", first.Code, second.Code)
		}
		if hdr := second.Header().Get("X-NCQ-Cache"); hdr != "hit" {
			t.Fatalf("second request of %q pair: X-NCQ-Cache = %q, want hit", order[0], hdr)
		}
		a := decode[wireQueryResponse](t, first)
		b := decode[wireQueryResponse](t, second)
		if len(a.Result.Meets) == 0 {
			t.Fatal("workload degenerate: no meets")
		}
		if len(a.Result.Meets) != len(b.Result.Meets) {
			t.Fatalf("meets differ: %+v vs %+v", a.Result, b.Result)
		}
	}
}

// TestQueryV2Vague pins the serving path end to end: a restrict
// pattern with a misspelled label is empty in exact mode, answers
// under a slack budget with the blended distance, and the two vague
// metric series record the traffic.
func TestQueryV2Vague(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)

	exact := do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true,"restrict":["/bib/articel"]}`)
	if exact.Code != http.StatusOK {
		t.Fatalf("exact: %d %s", exact.Code, exact.Body)
	}
	if resp := decode[wireQueryResponse](t, exact); len(resp.Result.Meets) != 0 {
		t.Fatalf("exact misspelled restrict matched %+v", resp.Result.Meets)
	}

	vague := do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true,"restrict":["/bib/articel"],`+
			`"vague":{"max_slack":2}}`)
	if vague.Code != http.StatusOK {
		t.Fatalf("vague: %d %s", vague.Code, vague.Body)
	}
	resp := decode[wireQueryResponse](t, vague)
	if len(resp.Result.Meets) != 1 || resp.Result.Meets[0].Tag != "article" {
		t.Fatalf("vague meets = %+v", resp.Result.Meets)
	}
	// "articel" is two edits from "article": slack 2 blended at weight 2.
	exactControl := do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true,"restrict":["/bib/article"]}`)
	control := decode[wireQueryResponse](t, exactControl)
	if len(control.Result.Meets) != 1 ||
		resp.Result.Meets[0].Distance != control.Result.Meets[0].Distance+4 {
		t.Fatalf("blended distance %d, control %+v", resp.Result.Meets[0].Distance, control.Result.Meets)
	}

	// A cache hit on the vague request still counts as vague traffic
	// but re-observes no relaxations.
	if rec := do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","terms":["Bit","1999"],"exclude_root":true,"restrict":["/bib/articel"],`+
			`"vague":{"max_slack":2}}`); rec.Header().Get("X-NCQ-Cache") != "hit" {
		t.Fatalf("repeat vague request missed the cache: %s", rec.Header().Get("X-NCQ-Cache"))
	}

	rec := do(t, s, "GET", "/v1/metrics", "")
	body := rec.Body.String()
	if !strings.Contains(body, "ncq_vague_requests_total 2") {
		t.Errorf("metrics missing vague request count:\n%s", grepMetric(body, "ncq_vague_requests_total"))
	}
	if !strings.Contains(body, "ncq_vague_relaxations_total_count 1") ||
		!strings.Contains(body, "ncq_vague_relaxations_total_sum 2") {
		t.Errorf("metrics missing relaxation histogram:\n%s", grepMetric(body, "ncq_vague_relaxations_total"))
	}
}

// grepMetric extracts one metric family from an exposition body for
// failure messages.
func grepMetric(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestQueryV2VagueStream pins the NDJSON form: streamed vague meets
// equal the batch endpoint's answer in the same blended order, and
// the stream counts toward the vague request and relaxation series.
func TestQueryV2VagueStream(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	body := `{"terms":["Bit","1999"],"exclude_root":true,"restrict":["/bib/articel"],` +
		`"vague":{"max_slack":2}}`

	rec := doStream(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body)
	}
	meets, trailer := streamLines(t, rec.Body.String())
	if len(meets) == 0 || trailer.Truncated {
		t.Fatalf("streamed %d meets, trailer %+v", len(meets), trailer)
	}

	batch := do(t, s, "POST", "/v2/query", body)
	resp := decode[wireQueryResponse](t, batch)
	if len(resp.Result.Meets) != len(meets) {
		t.Fatalf("stream %d meets, batch %d", len(meets), len(resp.Result.Meets))
	}
	for i := range meets {
		if meets[i].Source != resp.Result.Meets[i].Source ||
			meets[i].Node != resp.Result.Meets[i].Node ||
			meets[i].Distance != resp.Result.Meets[i].Distance {
			t.Errorf("meet %d: stream %+v vs batch %+v", i, meets[i], resp.Result.Meets[i])
		}
	}

	metricsBody := do(t, s, "GET", "/v1/metrics", "").Body.String()
	if !strings.Contains(metricsBody, "ncq_vague_requests_total 2") {
		t.Errorf("stream not counted:\n%s", grepMetric(metricsBody, "ncq_vague_requests_total"))
	}
}

// TestQueryV2VagueExpand pins term expansion over HTTP: a thesaurus
// installed on the serving corpus broadens a synonym onto the stored
// vocabulary when — and only when — the request asks for it.
func TestQueryV2VagueExpand(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	s.Corpus().SetThesaurus(ncq.NewThesaurus().Add("binary", "Bit"))

	off := do(t, s, "POST", "/v2/query", `{"doc":"cwi","terms":["binary","1999"],"exclude_root":true}`)
	if resp := decode[wireQueryResponse](t, off); len(resp.Result.Meets) != 0 {
		t.Fatalf("exact mode expanded: %+v", resp.Result.Meets)
	}
	on := do(t, s, "POST", "/v2/query",
		`{"doc":"cwi","terms":["binary","1999"],"exclude_root":true,"vague":{"max_slack":0,"expand":true}}`)
	if on.Code != http.StatusOK {
		t.Fatalf("expand: %d %s", on.Code, on.Body)
	}
	if resp := decode[wireQueryResponse](t, on); len(resp.Result.Meets) != 1 ||
		resp.Result.Meets[0].Tag != "article" {
		t.Fatalf("expanded meets = %+v", decode[wireQueryResponse](t, on).Result.Meets)
	}
}

// TestQueryVagueRejects pins the 400 contract for malformed vague
// requests.
func TestQueryVagueRejects(t *testing.T) {
	s := newTestServer(t)
	loadDocs(t, s)
	bad := []string{
		`{"query":"SELECT meet(e1, e2) FROM //year AS e1, //who AS e2","vague":{"max_slack":1}}`,
		`{"terms":["Bit"],"vague":{"max_slack":-1}}`,
		`{"terms":["Bit"],"vague":{"max_slack":99}}`,
	}
	for _, body := range bad {
		if rec := do(t, s, "POST", "/v2/query", body); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: %d %s", body, rec.Code, rec.Body)
		}
	}
}
