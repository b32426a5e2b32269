package ncq

// The query language on the request pipeline, held against the
// single-document evaluator it shares its lowering with.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ncq/internal/xmltree"
)

// deepTwoLabelDoc is a random tree over two labels and five levels: a
// few dozen paths with many nodes each, so that bindings are long and
// many inputs share ancestors (xmltree.Random scatters its nodes over
// so many paths that they do not).
func deepTwoLabelDoc(r *rand.Rand, minNodes int) *xmltree.Document {
	return xmltree.MustDocument("root", func(b *xmltree.Builder) {
		n := 1
		var grow func(parent *xmltree.Node, depth int)
		grow = func(parent *xmltree.Node, depth int) {
			for k, kn := 0, 1+r.Intn(4); k < kn; k++ {
				n++
				if depth > 1 && r.Intn(3) == 0 {
					if last := len(parent.Children) - 1; last < 0 || parent.Children[last].Kind != xmltree.CData {
						b.Text(parent, fmt.Sprintf("t%d", r.Intn(8)))
					}
					continue
				}
				var attrs []xmltree.Attr
				if r.Intn(5) == 0 {
					attrs = []xmltree.Attr{{Name: "k", Value: fmt.Sprintf("v%d", r.Intn(4))}}
				}
				if c := b.Element(parent, []string{"a", "b"}[r.Intn(2)], attrs...); depth < 5 {
					grow(c, depth+1)
				}
			}
		}
		for n < minNodes {
			grow(b.Root(), 1)
		}
	})
}

// TestQueryPipelineEqualsEval is the differential between the two ways
// a query is answered: Database.Query's rows (query.Engine.Eval: the
// paper's answer set), stably ranked by (distance, node), are the meets
// Run answers Request.Query with, field by field, and the inputs that
// found no partner are the same. The table covers every meet option,
// every projection and every connective of the WHERE clause.
func TestQueryPipelineEqualsEval(t *testing.T) {
	const xy = ` FROM //cdata AS x, //cdata AS y WHERE x CONTAINS 't1' AND y CONTAINS 't2'`
	queries := []string{
		`SELECT meet(x, y)` + xy,
		`SELECT meet(x, y; EXCLUDE /root)` + xy,
		`SELECT meet(x, y; EXCLUDE /root, //a, NEAREST)` + xy,
		`SELECT meet(x, y; WITHIN 3)` + xy,
		`SELECT meet(x, y; MAXLIFT 2)` + xy,
		`SELECT meet(x, y; RANKED)` + xy,
		`SELECT meet(x, y; EXCLUDE //b, RANKED)` + xy,
		`SELECT meet(x, y, z; EXCLUDE /root, WITHIN 6, MAXLIFT 3, NEAREST, RANKED)
			FROM //cdata AS x, //cdata AS y, //cdata AS z
			WHERE x CONTAINS 't1' AND y CONTAINS 't2' AND z CONTAINS 't3'`,
		`SELECT meet(x) FROM //cdata AS x WHERE x CONTAINS 't1'`,
		`SELECT meet(x, y) FROM //a AS x, //b AS y WHERE x CONTAINS 't1'`,
		`SELECT meet(x, y) FROM //cdata AS x, //cdata AS y WHERE x CONTAINS 't' AND y CONTAINS '1'`,
		`SELECT e FROM //a AS e`,
		`SELECT tag(e) FROM //* AS e WHERE e CONTAINS 't3'`,
		`SELECT path(e) FROM //b/a AS e`,
		`SELECT value(e) FROM //b AS e`,
		`SELECT xml(e) FROM //a AS e WHERE e CONTAINS 't0'`,
		`SELECT tag(e), path(e), value(e), xml(e) FROM //b AS e WHERE e CONTAINS 't7'`,
		`SELECT tag(e) FROM //a@k AS e`,
		`SELECT value(e) FROM //cdata AS e WHERE e = 't4'`,
		`SELECT value(e) FROM //a AS e WHERE e CONTAINS 't1' AND e CONTAINS 't2'`,
		`SELECT value(e) FROM //a AS e WHERE (e CONTAINS 't1' OR e CONTAINS 't2')`,
		`SELECT value(e) FROM //a AS e WHERE NOT e CONTAINS 't1'`,
		`SELECT xml(e) FROM //b AS e WHERE (e CONTAINS 't1' AND NOT e = 't1') OR e = 't5'`,
		`SELECT e FROM //* AS e WHERE e CONTAINS 'absent'`,
	}
	r := rand.New(rand.NewSource(20261004))
	var docs []*xmltree.Document
	for i := 0; i < 6; i++ {
		docs = append(docs, xmltree.Random(r, 400))
	}
	docs = append(docs, deepTwoLabelDoc(r, 1500), deepTwoLabelDoc(r, 3000))
	rows, unmatched := 0, 0
	for di, doc := range docs {
		db, err := fromDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range queries {
			ans, err := db.Query(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			res, err := db.Run(context.Background(), Request{Query: src})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want := answerMeets(ans)
			if len(res.Meets) != len(want) {
				t.Fatalf("doc %d, %s: Run answers %d meets, Eval %d rows", di, src, len(res.Meets), len(want))
			}
			for i, m := range res.Meets {
				if m.Source != "" || m.Shard != 0 || !reflect.DeepEqual(m.Meet, want[i]) {
					t.Fatalf("doc %d, %s: meet %d is %+v (projected %+v), Eval's row %+v (projected %+v)",
						di, src, i, m, m.Projected, want[i], want[i].Projected)
				}
			}
			if !reflect.DeepEqual(res.UnmatchedNodes, ans.Unmatched) || res.Unmatched != len(ans.Unmatched) {
				t.Fatalf("doc %d, %s: unmatched %v (%d), Eval %v", di, src, res.UnmatchedNodes, res.Unmatched, ans.Unmatched)
			}
			rows += len(want)
			unmatched += len(ans.Unmatched)
		}
	}
	if rows < 10000 || unmatched < 100 {
		t.Errorf("workload degenerate: %d rows and %d unmatched inputs compared", rows, unmatched)
	}
}
