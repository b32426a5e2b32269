package ncq

// Tests for the vague-constraints query mode: the zero-spec
// equivalence property (a Vague spec with no slack and no expansion is
// byte-for-byte the exact engine, down to cursors), and the
// ranked-retrieval quality gates on the two synthetic datasets — a
// misspelled restrict pattern on the bibliography and a restructured
// one on the multimedia document must still surface the known-relevant
// records at the top of the blended ranking.

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"ncq/internal/datagen"
)

// vagueTestCorpus builds a small mixed corpus: the bibliography as a
// plain member and the multimedia document sharded, so both fan-out
// shapes are exercised.
func vagueTestCorpus(t testing.TB) *Corpus {
	t.Helper()
	c := NewCorpus()
	var xml strings.Builder
	dblp := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1988, YearTo: 1994, PubsPerVenueYear: 3})
	if err := dblp.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	db, err := OpenString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("dblp", db); err != nil {
		t.Fatal(err)
	}
	mm := datagen.Multimedia(datagen.MultimediaConfig{Seed: 2, Items: 40, MaxProbeDistance: 8})
	if _, _, err := c.AddSharded("mm", mm, 3); err != nil {
		t.Fatal(err)
	}
	return c
}

// marshalRun executes req and returns the result as canonical JSON
// with the wall-time zeroed, for byte comparison.
func marshalRun(t *testing.T, q Querier, req Request) ([]byte, *Result) {
	t.Helper()
	res, err := q.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run(%+v): %v", req, err)
	}
	res.Elapsed = 0
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw, res
}

// drainMeets collects a Results stream into marshalled meet lines.
func drainMeets(t *testing.T, c *Corpus, req Request) []string {
	t.Helper()
	var lines []string
	for m, err := range c.Results(context.Background(), req) {
		if err != nil {
			t.Fatalf("Results(%+v): %v", req, err)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
	}
	return lines
}

// TestVagueZeroSlackEqualsExact is the randomized equivalence
// property: a request carrying the zero Vague spec ({max_slack:0,
// expand:false}) answers byte-identically to the same request without
// it — Run envelopes, Results streams, canonical encodings, and
// cursors minted by one mode consumed by the other.
func TestVagueZeroSlackEqualsExact(t *testing.T) {
	c := vagueTestCorpus(t)
	pool := []string{"ICDE", "1993", "199", "probeA3", "probeB3", "jpeg", "nosuchterm"}
	docs := []string{"", "", "dblp", "mm"}
	rng := rand.New(rand.NewSource(7))

	sawMeets := false
	for i := 0; i < 40; i++ {
		req := Request{Doc: docs[rng.Intn(len(docs))]}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			req.Terms = append(req.Terms, pool[rng.Intn(len(pool))])
		}
		if rng.Intn(2) == 0 {
			req.Options = ExcludeRoot()
		}
		if rng.Intn(3) == 0 {
			req.Limit = 1 + rng.Intn(8)
		}
		vreq := req
		vreq.Vague = &Vague{} // the zero spec

		if got, want := vreq.Canonical(), req.Canonical(); got != want {
			t.Fatalf("case %d: canonical %q != exact %q", i, got, want)
		}
		exact, exactRes := marshalRun(t, c, req)
		vague, vagueRes := marshalRun(t, c, vreq)
		if string(exact) != string(vague) {
			t.Fatalf("case %d (%+v):\nexact %s\nvague %s", i, req, exact, vague)
		}
		if len(exactRes.Meets) > 0 {
			sawMeets = true
		}

		eLines, vLines := drainMeets(t, c, req), drainMeets(t, c, vreq)
		if len(eLines) != len(vLines) {
			t.Fatalf("case %d: streamed %d exact, %d vague", i, len(eLines), len(vLines))
		}
		for j := range eLines {
			if eLines[j] != vLines[j] {
				t.Fatalf("case %d meet %d: %s != %s", i, j, eLines[j], vLines[j])
			}
		}

		// Cursor interchange: a page chain started in one mode
		// continues in the other — the fingerprints must agree.
		if exactRes.Truncated {
			next := req
			next.Cursor = exactRes.NextCursor
			vnext := next
			vnext.Vague = &Vague{}
			page2e, _ := marshalRun(t, c, next)
			page2v, _ := marshalRun(t, c, vnext)
			if string(page2e) != string(page2v) {
				t.Fatalf("case %d page 2:\nexact %s\nvague %s", i, page2e, page2v)
			}
		}
		_ = vagueRes
	}
	if !sawMeets {
		t.Fatal("workload degenerate: no case produced any meets")
	}
}

// TestVagueQualityDBLPMisspelled pins the bibliography quality gate: a
// restrict pattern with a misspelled label ("inprocedings") finds
// nothing in exact mode, while vague mode with a slack budget of 2
// recovers exactly the answer set of the correctly-spelled restrict,
// every meet shifted by the blended cost of one unit of slack and the
// known-relevant records ranked in the same order.
func TestVagueQualityDBLPMisspelled(t *testing.T) {
	var xml strings.Builder
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1988, YearTo: 1994, PubsPerVenueYear: 4})
	if err := doc.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	db, err := OpenString(xml.String())
	if err != nil {
		t.Fatal(err)
	}

	control, err := db.Run(context.Background(),
		Request{Terms: []string{"ICDE", "1993"}, Options: ExcludeRoot().Restrict("/dblp/inproceedings")})
	if err != nil {
		t.Fatal(err)
	}
	if len(control.Meets) == 0 {
		t.Fatal("control query found nothing; generator changed?")
	}

	misspelled := Request{Terms: []string{"ICDE", "1993"},
		Options: ExcludeRoot().Restrict("/dblp/inprocedings")}
	exact, err := db.Run(context.Background(), misspelled)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Meets) != 0 {
		t.Fatalf("exact misspelled restrict matched %d meets; want 0", len(exact.Meets))
	}

	misspelled.Vague = &Vague{MaxSlack: 2}
	vague, err := db.Run(context.Background(), misspelled)
	if err != nil {
		t.Fatal(err)
	}
	if len(vague.Meets) != len(control.Meets) {
		t.Fatalf("vague found %d meets, control %d", len(vague.Meets), len(control.Meets))
	}
	for i, m := range vague.Meets {
		want := control.Meets[i]
		if m.Node != want.Node || m.Path != want.Path || m.Tag != "inproceedings" {
			t.Fatalf("meet %d: got %+v, control %+v", i, m.Meet, want.Meet)
		}
		// One unit of slack (the misspelled label, edit distance 1)
		// blended at the configured weight.
		if m.Distance != want.Distance+2 {
			t.Fatalf("meet %d: blended distance %d, control %d", i, m.Distance, want.Distance)
		}
	}
	for i := 0; i < 5 && i < len(vague.Meets); i++ {
		if vague.Meets[i].Tag != "inproceedings" {
			t.Fatalf("rank %d is %q, want inproceedings", i, vague.Meets[i].Tag)
		}
	}
	if got := vague.RelaxationsBySlack; len(got) != 3 || got[1] != len(vague.Meets) || got[2] != 0 {
		t.Fatalf("RelaxationsBySlack = %v, want [0 %d 0]", got, len(vague.Meets))
	}
}

// TestVagueQualityMultimediaRestructured pins the multimedia quality
// gate: a restrict pattern written against a remembered-wrong document
// shape ("/collection/probe/fork", missing the probes level) is dead
// in exact mode; one unit of structural slack re-admits the real path
// and the planted probe pair ranks first at its blended distance.
func TestVagueQualityMultimediaRestructured(t *testing.T) {
	var xml strings.Builder
	doc := datagen.Multimedia(datagen.MultimediaConfig{Seed: 2, Items: 40, MaxProbeDistance: 8})
	if err := doc.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	db, err := OpenString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	termA, termB := datagen.ProbeTerms(3)

	control, err := db.Run(context.Background(),
		Request{Terms: []string{termA, termB}, Options: ExcludeRoot().Restrict("/collection/probes/probe/fork")})
	if err != nil {
		t.Fatal(err)
	}
	if len(control.Meets) != 1 || control.Meets[0].Tag != "fork" {
		t.Fatalf("control meets = %+v; want exactly the fork", control.Meets)
	}

	req := Request{Terms: []string{termA, termB},
		Options: ExcludeRoot().Restrict("/collection/probe/fork")}
	exact, err := db.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Meets) != 0 {
		t.Fatalf("exact restructured restrict matched %d meets; want 0", len(exact.Meets))
	}

	req.Vague = &Vague{MaxSlack: 1}
	vague, err := db.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(vague.Meets) != 1 {
		t.Fatalf("vague meets = %+v; want exactly one", vague.Meets)
	}
	top := vague.Meets[0]
	want := control.Meets[0]
	if top.Node != want.Node || top.Tag != "fork" || top.Distance != want.Distance+2 {
		t.Fatalf("rank 1 = %+v; control %+v", top.Meet, want.Meet)
	}
}

// TestVagueThesaurusExpansion pins the expand side of the mode: a
// corpus-installed thesaurus maps an unknown query term onto the
// planted probe marker, and {expand:true} alone (no structural slack)
// recovers the exact-mode answer for the synonymous terms.
func TestVagueThesaurusExpansion(t *testing.T) {
	c := NewCorpus()
	mm := datagen.Multimedia(datagen.MultimediaConfig{Seed: 2, Items: 40, MaxProbeDistance: 8})
	var xml strings.Builder
	if err := mm.WriteXML(&xml, false); err != nil {
		t.Fatal(err)
	}
	db, err := OpenString(xml.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("mm", db); err != nil {
		t.Fatal(err)
	}
	termA, termB := datagen.ProbeTerms(3)

	control, err := c.Run(context.Background(),
		Request{Terms: []string{termA, termB}, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	if len(control.Meets) != 1 {
		t.Fatalf("control meets = %+v", control.Meets)
	}

	// Without the thesaurus the synonym is just an unknown term.
	blind, err := c.Run(context.Background(),
		Request{Terms: []string{"probex", termB}, Options: ExcludeRoot(), Vague: &Vague{Expand: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(blind.Meets) != 0 {
		t.Fatalf("expansion without thesaurus matched %+v", blind.Meets)
	}

	c.SetThesaurus(NewThesaurus().Add("probex", termA))
	got, err := c.Run(context.Background(),
		Request{Terms: []string{"probex", termB}, Options: ExcludeRoot(), Vague: &Vague{Expand: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Meets) != 1 || got.Meets[0].Node != control.Meets[0].Node ||
		got.Meets[0].Distance != control.Meets[0].Distance {
		t.Fatalf("expanded meets = %+v; control %+v", got.Meets, control.Meets)
	}

	// Exact mode ignores the installed thesaurus entirely.
	off, err := c.Run(context.Background(),
		Request{Terms: []string{"probex", termB}, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Meets) != 0 {
		t.Fatalf("exact mode expanded terms: %+v", off.Meets)
	}
}

// TestVagueValidation pins the request-level contract.
func TestVagueValidation(t *testing.T) {
	c := vagueTestCorpus(t)
	cases := []Request{
		{Query: "SELECT meet(e1, e2) FROM //year AS e1, //author AS e2", Vague: &Vague{MaxSlack: 1}},
		{Terms: []string{"ICDE"}, Vague: &Vague{MaxSlack: -1}},
		{Terms: []string{"ICDE"}, Vague: &Vague{MaxSlack: MaxVagueSlack + 1}},
	}
	for i, req := range cases {
		if _, err := c.Run(context.Background(), req); err == nil {
			t.Errorf("case %d (%+v): accepted", i, req)
		}
	}
	if _, err := c.Run(context.Background(),
		Request{Terms: []string{"ICDE"}, Vague: &Vague{MaxSlack: MaxVagueSlack}}); err != nil {
		t.Errorf("max budget rejected: %v", err)
	}
}

// TestVagueCursorBoundToSpec pins that an active vague spec is part of
// the cursor fingerprint: a cursor minted by a vague request cannot be
// replayed with different vague parameters.
func TestVagueCursorBoundToSpec(t *testing.T) {
	c := vagueTestCorpus(t)
	req := Request{Terms: []string{"ICDE", "199"}, Options: ExcludeRoot(), Limit: 3,
		Vague: &Vague{MaxSlack: 1}}
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("workload too small for pagination")
	}
	for _, vg := range []*Vague{nil, {MaxSlack: 2}} {
		bad := req
		bad.Vague = vg
		bad.Cursor = res.NextCursor
		if _, err := c.Run(context.Background(), bad); err == nil {
			t.Errorf("cursor accepted under vague spec %+v", vg)
		}
	}
	good := req
	good.Cursor = res.NextCursor
	if _, err := c.Run(context.Background(), good); err != nil {
		t.Errorf("cursor rejected under its own spec: %v", err)
	}
}
