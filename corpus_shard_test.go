package ncq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ncq/internal/datagen"
	"ncq/internal/shard"
	"ncq/internal/xmltree"
)

// bigBib builds a bibliography whose root has many records — the shape
// sharding is for.
func bigBib(records int) *xmltree.Document {
	return xmltree.MustDocument("bib", func(b *xmltree.Builder) {
		for i := 0; i < records; i++ {
			rec := b.Element(b.Root(), "article")
			b.Text(b.Element(rec, "author"), fmt.Sprintf("Author%d", i))
			b.Text(b.Element(rec, "year"), fmt.Sprintf("%d", 1990+i%10))
		}
	})
}

func TestAddShardedBasics(t *testing.T) {
	c := NewCorpus()
	doc := bigBib(20)
	added, replaced, err := c.AddSharded("bib", doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 4 || replaced {
		t.Fatalf("AddSharded = (%d dbs, %t)", len(added), replaced)
	}
	if got := AggregateStats(added); got.Nodes != doc.Len()+3 {
		t.Errorf("AggregateStats(added).Nodes = %d, want %d", got.Nodes, doc.Len()+3)
	}
	if !has(c, "bib") || c.Len() != 1 || shardCount(c, "bib") != 4 {
		t.Errorf("Has=%t Len=%d ShardCount=%d", has(c, "bib"), c.Len(), shardCount(c, "bib"))
	}
	if _, ok := c.Get("bib"); ok {
		t.Error("Get resolved a sharded member to a single database")
	}
	dbs, ok := c.Shards("bib")
	if !ok || len(dbs) != 4 {
		t.Fatalf("Shards = %d dbs, ok=%t", len(dbs), ok)
	}
	st, shards, ok := c.MemberStats("bib")
	if !ok || shards != 4 {
		t.Fatalf("MemberStats shards = %d, ok=%t", shards, ok)
	}
	// Every original node lands in exactly one shard: aggregated node
	// count equals the unsharded document plus one extra root per
	// additional shard.
	if want := doc.Len() + 3; st.Nodes != want {
		t.Errorf("aggregated nodes = %d, want %d", st.Nodes, want)
	}

	// Replacement across kinds keeps the position and bumps the
	// generation.
	gen := c.Generation()
	db, err := OpenString(`<bib><article><author>Solo</author></article></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	if replaced, err := c.Put("bib", db); err != nil || !replaced {
		t.Fatalf("Put over sharded: replaced=%t err=%v", replaced, err)
	}
	if shardCount(c, "bib") != 1 || c.Generation() == gen {
		t.Errorf("ShardCount=%d gen=%d (was %d)", shardCount(c, "bib"), c.Generation(), gen)
	}
	if _, replaced, err := c.AddSharded("bib", doc, 2); err != nil || !replaced {
		t.Fatalf("AddSharded over plain: replaced=%t err=%v", replaced, err)
	}
	if !c.Remove("bib") || has(c, "bib") || c.Len() != 0 {
		t.Error("Remove did not evict the sharded member")
	}
}

func TestAddShardedErrors(t *testing.T) {
	c := NewCorpus()
	if _, _, err := c.AddSharded("x", nil, 2); err == nil {
		t.Error("nil document accepted")
	}
	if _, err := c.Run(context.Background(), Request{Doc: "ghost", Terms: []string{"a"}}); err == nil {
		t.Error("unknown member accepted")
	} else if !strings.Contains(err.Error(), "unknown document") {
		t.Errorf("error = %v", err)
	}
	if _, err := c.Run(context.Background(), Request{Doc: "ghost", Query: "SELECT tag(e) FROM //a AS e"}); !errors.Is(err, ErrUnknownDoc) {
		t.Errorf("query against an unknown member = %v", err)
	}
}

// TestShardedMeetMerging: a sharded member answers under its logical
// name with 1-based shard attribution, ranked by distance.
func TestShardedMeetMerging(t *testing.T) {
	c := NewCorpus()
	if _, _, err := c.AddSharded("bib", bigBib(12), 3); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), Request{Doc: "bib", Terms: []string{"Author", "199"}, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	meets := res.Meets
	if len(meets) == 0 {
		t.Fatal("no meets")
	}
	shardsSeen := map[int]bool{}
	for i, m := range meets {
		if m.Source != "bib" {
			t.Errorf("meet %d: source %q", i, m.Source)
		}
		if m.Shard < 1 || m.Shard > 3 {
			t.Errorf("meet %d: shard %d out of range", i, m.Shard)
		}
		shardsSeen[m.Shard] = true
		if i > 0 && meets[i-1].Distance > m.Distance {
			t.Errorf("meets not ranked: %d before %d", meets[i-1].Distance, m.Distance)
		}
	}
	if len(shardsSeen) != 3 {
		t.Errorf("answers came from %d shards, want 3", len(shardsSeen))
	}

	// The corpus-wide meet reports the same logical source.
	all, err := c.Run(context.Background(), Request{Terms: []string{"Author", "199"}, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Meets) != len(meets) {
		t.Errorf("corpus-wide found %d meets, member query %d", len(all.Meets), len(meets))
	}
}

// TestShardedQueryMerging: the query language resolves a sharded
// member into one merged answer under its logical name.
func TestShardedQueryMerging(t *testing.T) {
	doc := bigBib(10)
	plain, err := fromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Query(`SELECT tag(e) FROM //year AS e`)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCorpus()
	if _, _, err := c.AddSharded("bib", doc, 4); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := c.Run(ctx, Request{Doc: "bib", Query: `SELECT tag(e) FROM //year AS e`})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Meets) != len(want.Rows) {
		t.Fatalf("sharded query: %d rows, unsharded %d", len(got.Meets), len(want.Rows))
	}

	// Corpus-wide query merges the shards under one source.
	all, err := c.Run(ctx, Request{Query: `SELECT tag(e) FROM //year AS e`})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Meets) != len(want.Rows) {
		t.Errorf("merged rows = %d, want %d", len(all.Meets), len(want.Rows))
	}
	for _, m := range all.Meets {
		if m.Source != "bib" || m.Shard < 1 || m.Shard > 4 || m.Tag != "year" {
			t.Fatalf("corpus-wide row = %+v", m)
		}
	}

	// A meet query's merged rows stay ranked by distance.
	const mq = `SELECT meet(e1, e2; EXCLUDE /bib)
		FROM //author/cdata AS e1, //year/cdata AS e2
		WHERE e1 CONTAINS 'Author' AND e2 CONTAINS '199'`
	merged, err := c.Run(ctx, Request{Doc: "bib", Query: mq})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Meets) == 0 {
		t.Fatal("meet query: no rows")
	}
	for i := 1; i < len(merged.Meets); i++ {
		if merged.Meets[i-1].Distance > merged.Meets[i].Distance {
			t.Errorf("merged meet rows not ranked at %d", i)
		}
	}
	wantMeet, err := plain.Query(mq)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Meets) != len(wantMeet.Rows) {
		t.Errorf("merged meet rows = %d, unsharded %d", len(merged.Meets), len(wantMeet.Rows))
	}
}

// meetSignature renders a meet as a shard-independent string: result
// path, distance, and the (path, value) pairs of its witnesses. OIDs
// are deliberately absent — shards renumber nodes.
func meetSignature(db *Database, m Meet) string {
	wit := make([]string, len(m.Witnesses))
	for i, w := range m.Witnesses {
		wit[i] = db.Path(w) + "=" + db.Value(w)
	}
	sort.Strings(wit)
	return fmt.Sprintf("%s d%d [%s]", m.Path, m.Distance, strings.Join(wit, ","))
}

// TestShardedEqualsUnsharded is the merge-correctness property: for
// random documents and random term queries, a sharded member returns
// exactly the answer set of the unsharded document — same concepts,
// same distances, same witnesses. The root must be excluded: witnesses
// living in different shards can only meet at the document root, which
// a sharded member cannot represent (and which large-corpus queries
// exclude anyway, per the paper's case study).
//
// Query-language requests are held to more: on a document whose records
// alternate between two depths — so that document order and distance
// order disagree — the unsharded member and the shards of both split
// policies answer with the same sequence, whole and paged.
func TestShardedEqualsUnsharded(t *testing.T) {
	r := rand.New(rand.NewSource(20260728))
	terms := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	for trial := 0; trial < 40; trial++ {
		doc := xmltree.Random(r, 500)
		k := 2 + r.Intn(6)
		nTerms := 2 + r.Intn(2)
		query := make([]string, nTerms)
		for i := range query {
			query[i] = terms[r.Intn(len(terms))]
		}

		plain, err := fromDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		wantMeets, _, err := locateMeet(plain, ExcludeRoot(), query...)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(wantMeets))
		for i, m := range wantMeets {
			want[i] = meetSignature(plain, m)
		}
		sort.Strings(want)

		c := NewCorpus()
		if _, _, err := c.AddSharded("doc", doc, k); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), Request{Doc: "doc", Terms: query, Options: ExcludeRoot()})
		if err != nil {
			t.Fatal(err)
		}
		gotMeets := res.Meets
		shards, _ := c.Shards("doc")
		got := make([]string, len(gotMeets))
		for i, m := range gotMeets {
			shardDB := shards[0]
			if m.Shard > 0 {
				shardDB = shards[m.Shard-1]
			}
			got[i] = meetSignature(shardDB, m.Meet)
		}
		sort.Strings(got)

		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d, terms=%v): sharded %d meets, unsharded %d\nsharded:   %v\nunsharded: %v",
				trial, k, query, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (k=%d, terms=%v): meet %d differs\nsharded:   %s\nunsharded: %s",
					trial, k, query, i, got[i], want[i])
			}
		}
	}

	// Twelve records, nested (author and year three levels below the
	// record: distance 6) and flat (two levels: distance 4) in turn.
	doc := xmltree.MustDocument("bib", func(b *xmltree.Builder) {
		for i := 0; i < 12; i++ {
			rec := b.Element(b.Root(), "article")
			by, in := rec, rec
			if i%2 == 0 {
				by, in = b.Element(rec, "by"), b.Element(rec, "in")
			}
			b.Text(b.Element(by, "author"), fmt.Sprintf("Author%d", i))
			b.Text(b.Element(in, "year"), fmt.Sprintf("%d", 1990+i))
		}
	})
	corpora := map[string]*Corpus{"k=1": NewCorpus(), "buffered": NewCorpus(), "streamed": NewCorpus()}
	plain, err := fromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := corpora["k=1"].Put("doc", plain); err != nil {
		t.Fatal(err)
	}
	if dbs, _, err := corpora["buffered"].AddSharded("doc", doc, 3); err != nil || len(dbs) != 3 {
		t.Fatalf("buffered split: %d shards, %v", len(dbs), err)
	}
	xml := doc.XMLString()
	dbs, err := openParts(strings.NewReader(xml), shard.StreamCut(int64(len(xml)/3), 3))
	if err != nil || len(dbs) != 3 {
		t.Fatalf("streamed split: %d shards, %v", len(dbs), err)
	}
	if _, err := corpora["streamed"].Commit("doc", dbs, true, nil); err != nil {
		t.Fatal(err)
	}
	// sequence runs src to the end of its cursor chain and renders what
	// of the answer does not depend on how nodes are numbered.
	sequence := func(c *Corpus, src string, limit int) (seq []string) {
		req := Request{Doc: "doc", Query: src, Limit: limit}
		for {
			res, err := c.Run(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Meets {
				seq = append(seq, fmt.Sprintf("%s %s d%d %+v", m.Tag, m.Path, m.Distance, m.Projected))
			}
			if req.Cursor = res.NextCursor; req.Cursor == "" {
				return seq
			}
		}
	}
	const from = ` FROM //author/cdata AS a, //year/cdata AS y WHERE a CONTAINS 'Author' AND y CONTAINS '19'`
	for _, src := range []string{
		`SELECT meet(a, y; EXCLUDE /bib)` + from,
		`SELECT meet(a, y; EXCLUDE /bib, RANKED)` + from,
		`SELECT tag(e) FROM //year AS e`,
		`SELECT value(e) FROM //author AS e WHERE e CONTAINS 'Author1'`,
	} {
		want := sequence(corpora["k=1"], src, 0)
		if len(want) < 3 {
			t.Fatalf("%s: unsharded answer of %d rows", src, len(want))
		}
		for name, c := range corpora {
			for _, limit := range []int{0, 3} {
				if got := sequence(c, src, limit); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s, limit %d:\n got %v\nwant %v", src, name, limit, got, want)
				}
			}
		}
	}
}

// TestOpenShardedBufferedEqualsSplitOfTree: the small-body door of
// OpenSharded — weigh, then parse again through shard.Balance, no tree
// — lands the shards that parsing a tree, shard.Split and a load per
// shard land: as many, each with a byte-equal snapshot; and so does
// AddSharded, the tree's walk through the same Balance. A body it
// refuses is refused in ParseDocument's words.
func TestOpenShardedBufferedEqualsSplitOfTree(t *testing.T) {
	srcs := []string{
		`<r x="1">lead<a><b/><b/><b/></a>mid<a/>mid<a><b>x</b></a>trail</r>`,
		`<r><a/></r>`,
		`<r/>`,
		bigBib(200).XMLString(),
		datagen.DBLP(datagen.DBLPConfig{Seed: 3, YearFrom: 1996, YearTo: 1999, PubsPerVenueYear: 4}).XMLString(),
		datagen.Multimedia(datagen.MultimediaConfig{Seed: 3, Items: 60, MaxProbeDistance: 20}).XMLString(),
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 40; i++ {
		srcs = append(srcs, xmltree.Random(rng, 20+i*10).XMLString())
	}
	snap := func(db *Database) string {
		var sb strings.Builder
		if err := db.SaveSnapshot(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, src := range srcs {
		doc, err := ParseDocument(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3, 4, 9, shard.MaxShards + 1} {
			var want []*Database
			for _, part := range shard.Split(doc, k) {
				db, err := fromDocument(part)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, db)
			}
			got, err := OpenSharded(context.Background(), strings.NewReader(src), int64(len(src)), k)
			if err != nil || len(got) != len(want) {
				t.Fatalf("%.60s k=%d: %d shards (%v), the tree splits into %d", src, k, len(got), err, len(want))
			}
			added, _, err := NewCorpus().AddSharded("doc", doc, k)
			if err != nil || len(added) != len(want) {
				t.Fatalf("%.60s k=%d: AddSharded makes %d shards (%v), the tree splits into %d", src, k, len(added), err, len(want))
			}
			for i := range want {
				if snap(got[i]) != snap(want[i]) || snap(added[i]) != snap(want[i]) {
					t.Fatalf("%.60s k=%d: shard %d differs from the tree's", src, k, i)
				}
			}
		}
	}
	for _, bad := range []string{``, `<a><b></a>`, `<a/><b/>`, `<a><cdata>x</cdata></a>`} {
		_, want := ParseDocument(strings.NewReader(bad))
		_, got := OpenSharded(context.Background(), strings.NewReader(bad), int64(len(bad)), 2)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%q: OpenSharded says %v, ParseDocument %v", bad, got, want)
		}
	}
}
