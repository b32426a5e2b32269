package ncq_test

// The column-built stream line is held to the encoder of a rendered
// meet: for every answer, the line Corpus.LinesWithStats yields must be
// the bytes wire.AppendMeetLine writes for the meet ResultsWithStats
// yields in its place. The tests live in the external package because
// internal/wire imports ncq.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/datagen"
	"ncq/internal/wire"
	"ncq/internal/xmltree"
)

// linesEqualMeets runs req as lines and as meets, fails on any
// difference in the answers or the counters, and returns the lines and
// the counters.
func linesEqualMeets(t *testing.T, c *ncq.Corpus, req ncq.Request) ([]string, *ncq.StreamStats) {
	t.Helper()
	ctx := context.Background()
	meets, mstats := c.ResultsWithStats(ctx, req)
	var want []string
	for m, err := range meets {
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		want = append(want, string(wire.AppendMeetLine(nil, &m)))
	}
	lines, lstats := c.LinesWithStats(ctx, req)
	var got []string
	for line, err := range lines {
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		got = append(got, string(line))
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%+v: line %d of %d\n got %s\nwant %s", req, i, len(want), got[i], want[i])
			}
		}
		t.Fatalf("%+v: %d lines, %d meets", req, len(got), len(want))
	}
	if !reflect.DeepEqual(lstats, mstats) {
		t.Fatalf("%+v: line stats %+v, meet stats %+v", req, lstats, mstats)
	}
	return got, mstats
}

// pagedLinesEqualMeets follows req's cursors to the last page, each
// page held to linesEqualMeets, and returns every page's lines.
func pagedLinesEqualMeets(t *testing.T, c *ncq.Corpus, req ncq.Request) (all []string, pages int) {
	t.Helper()
	for {
		lines, stats := linesEqualMeets(t, c, req)
		all, pages = append(all, lines...), pages+1
		if stats.NextCursor == "" {
			return all, pages
		}
		req.Cursor = stats.NextCursor
	}
}

// TestStreamLinesEqualMeets covers what the line's memoized parts and
// its tail each spell: member names that need escaping, a sharded
// member, a vague request's blended distances, projected texts that
// need escaping on rows without witnesses, and pages cut by a limit and
// resumed by their cursors.
func TestStreamLinesEqualMeets(t *testing.T) {
	c := ncq.NewCorpus()
	dblp := func(seed int64) string {
		return datagen.DBLP(datagen.DBLPConfig{Seed: seed, YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 3}).XMLString()
	}
	plain, err := ncq.OpenString(dblp(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("bib<1> & \"co\"", plain); err != nil {
		t.Fatal(err)
	}
	src := dblp(2)
	shards, err := ncq.OpenSharded(context.Background(), strings.NewReader(src), int64(len(src)), 3)
	if err != nil || len(shards) < 2 {
		t.Fatalf("%d shards, %v", len(shards), err)
	}
	if _, err := c.Commit("café\u2028bib", shards, true, nil); err != nil {
		t.Fatal(err)
	}
	esc, err := ncq.OpenString("<lib><book><title>R&amp;D &lt;b&gt; \"q\" é\u2028x</title><year>1999</year></book>" +
		"<book><title>html &amp; co</title><year>1998</year></book></lib>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("esc", esc); err != nil {
		t.Fatal(err)
	}

	terms := ncq.Request{Terms: []string{"199", "html"}, Options: ncq.ExcludeRoot()}
	whole, _ := linesEqualMeets(t, c, terms)
	if len(whole) < 100 {
		t.Fatalf("%d lines: too few to check", len(whole))
	}
	paged := terms
	paged.Limit = 7
	if lines, pages := pagedLinesEqualMeets(t, c, paged); pages < 10 || !slices.Equal(lines, whole) {
		t.Errorf("%d pages of 7 concatenate to %d lines, the unlimited answer has %d", pages, len(lines), len(whole))
	}

	vague := ncq.Request{Terms: []string{"ICDE", "199"}, Vague: &ncq.Vague{MaxSlack: 2},
		Options: (&ncq.Options{}).Restrict("/dblp/inproceedings").Restrict("/dbl")}
	vagueLines, vs := linesEqualMeets(t, c, vague)
	if vs.RelaxationsBySlack[1] == 0 || vs.RelaxationsBySlack[1] == len(vagueLines) {
		t.Fatalf("vague request relaxed %v of %d answers: want a blend of relaxed and exact ones", vs.RelaxationsBySlack, len(vagueLines))
	}

	projected, _ := pagedLinesEqualMeets(t, c, ncq.Request{Query: "SELECT value(e), xml(e) FROM //title AS e", Limit: 5})
	meet, _ := linesEqualMeets(t, c, ncq.Request{Doc: "esc",
		Query: "SELECT meet(a, y) FROM //cdata AS a, //cdata AS y WHERE a CONTAINS 'R&D' AND y CONTAINS '1999'"})

	all := strings.Join(slices.Concat(whole, vagueLines, projected, meet), "")
	for _, want := range []string{
		`{"meet":{"source":"bib\u003c1\u003e \u0026 \"co\"","node":`,
		"{\"meet\":{\"source\":\"café\\u2028bib\",\"shard\":2,\"node\":",
		"\"witnesses\":null,\"distance\":0,\"projected\":{\"value\":\"R\\u0026D \\u003cb\\u003e \\\"q\\\" é\\u2028x\",\"xml\":\"\\u003ctitle\\u003eR\\u0026amp;D",
		`{"meet":{"source":"esc","node":2,"tag":"book","path":"/lib/book","witnesses":[`,
	} {
		if !strings.Contains(all, want) {
			t.Errorf("no line holds %s", want)
		}
	}
}

// FuzzStreamLinesEqualMeets holds the lines to the meets over random
// documents under any member name, plain or sharded, for a term
// request, a vague one or a projection, paged by any limit.
func FuzzStreamLinesEqualMeets(f *testing.F) {
	f.Add(int64(1), "bib", uint8(0), uint8(1), uint8(3), uint8(0), uint8(0))
	f.Add(int64(2), "a<b>&\"c\" é\u2028\xff", uint8(3), uint8(4), uint8(5), uint8(7), uint8(1))
	f.Add(int64(3), "", uint8(2), uint8(0), uint8(0), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, name string, shards, t1, t2, limit, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		c := ncq.NewCorpus()
		for i, n := range []string{name, name + "2"} {
			src := xmltree.Random(r, 300).XMLString()
			k := int(shards%4) + 1
			if i == 1 {
				k = 1
			}
			dbs, err := ncq.OpenSharded(context.Background(), strings.NewReader(src), int64(len(src)), k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Commit(n, dbs, k > 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		req := ncq.Request{Terms: []string{fmt.Sprintf("t%d", t1%8), fmt.Sprintf("t%d", t2%8)}, Limit: int(limit % 16)}
		switch mode % 3 {
		case 1:
			req.Options, req.Vague = (&ncq.Options{}).Restrict("/root/a/b"), &ncq.Vague{MaxSlack: 2}
		case 2:
			req.Terms, req.Query = nil, "SELECT value(e), xml(e) FROM //a AS e"
		}
		pagedLinesEqualMeets(t, c, req)
	})
}
