package ncq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/datagen"
	"ncq/internal/xmltree"
)

// sameDatabase fails t unless back holds what db holds: the same path
// summary — ids, labels, kinds, parents —, the same three per-OID
// columns with the depth and rank derived from them, association table
// rows and Stats, and the same substring answers.
func sameDatabase(t *testing.T, label string, db, back *Database) {
	t.Helper()
	a, b := db.store, back.store
	sa, sb := a.Summary(), b.Summary()
	if sa.Len() != sb.Len() || a.Len() != b.Len() || a.Root() != b.Root() || a.Stats() != b.Stats() {
		t.Fatalf("%s: %d paths, %d nodes, root %d, %+v; restored %d, %d, %d, %+v", label,
			sa.Len(), a.Len(), a.Root(), a.Stats(), sb.Len(), b.Len(), b.Root(), b.Stats())
	}
	for _, p := range sa.AllPaths() {
		if sa.Label(p) != sb.Label(p) || sa.Kind(p) != sb.Kind(p) || sa.Parent(p) != sb.Parent(p) {
			t.Fatalf("%s: path %d is %s, restored %s", label, p, sa.String(p), sb.String(p))
		}
	}
	for o := bat.OID(1); int(o) <= a.Len(); o++ {
		if a.Parent(o) != b.Parent(o) || a.PathOf(o) != b.PathOf(o) || a.Depth(o) != b.Depth(o) ||
			a.Rank(o) != b.Rank(o) || a.End(o) != b.End(o) {
			t.Fatalf("%s: the per-OID columns differ at OID %d", label, o)
		}
	}
	var needles []string
	ao, ap, av, avals := a.Table()
	bo, bp, bv, bvals := b.Table()
	if len(ao) != len(bo) {
		t.Fatalf("%s: %d string associations, restored %d", label, len(ao), len(bo))
	}
	nth := make([]int, sa.Len()) // pairs of each relation seen so far
	for r := range ao {
		v := avals[av[r]]
		if ao[r] != bo[r] || ap[r] != bp[r] || v != bvals[bv[r]] {
			t.Fatalf("%s: relation %s differs at owner %d", label, sa.String(ap[r]), ao[r])
		}
		if i := nth[ap[r]]; i%5 == 0 && v != "" {
			needles = append(needles, v, v[:(len(v)+1)/2], v[len(v)/3:])
		}
		nth[ap[r]]++
	}
	for _, n := range needles {
		if got, want := back.index.OwnersSubstring(n), db.index.OwnersSubstring(n); !slices.Equal(got, want) {
			t.Fatalf("%s: %q is owned by %v, restored by %v", label, n, want, got)
		}
	}
}

// restored saves db framed shard/shards, opens the snapshot, and holds
// the framing and a second save's bytes to the first's.
func restored(t *testing.T, label string, db *Database, shard, shards int) *Database {
	t.Helper()
	var first, second bytes.Buffer
	if err := db.SaveSnapshotShard(&first, shard, shards); err != nil {
		t.Fatal(err)
	}
	back, gotShard, gotShards, err := OpenSnapshotShard(bytes.NewReader(first.Bytes()))
	if err != nil || gotShard != shard || gotShards != shards {
		t.Fatalf("%s: framing %d/%d, err %v", label, gotShard, gotShards, err)
	}
	if err := back.SaveSnapshotShard(&second, shard, shards); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s: save→load→save is not byte-identical (err %v)", label, err)
	}
	return back
}

// shuffledAttrs is a document whose elements write random subsets of
// four attributes in random orders — against name order as often as
// along it — around text and nested elements.
func shuffledAttrs(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := range n {
		label := fmt.Sprintf("e%d", r.Intn(3))
		b.WriteString("<" + label)
		for _, j := range r.Perm(4)[:r.Intn(5)] {
			fmt.Fprintf(&b, ` %c="v%d w%d"`, 'a'+j, r.Intn(9), i)
		}
		fmt.Fprintf(&b, ">t%d<in x=\"%d\" %c=\"y\"/></%s>", r.Intn(50), i, 'a'+r.Intn(4), label)
	}
	b.WriteString("</r>")
	return b.String()
}

// TestSnapshotRestoresTheSameDatabase opens the snapshot of uploaded
// documents — random trees, elements writing their attributes against
// name order, and the parts of a four-way split — and requires the
// restored database to equal the saved one column for column.
func TestSnapshotRestoresTheSameDatabase(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	var docs []string
	for range 20 {
		docs = append(docs, xmltree.Random(r, 80).XMLString(), shuffledAttrs(r, 40))
	}
	for i, src := range docs {
		db, err := OpenString(src)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("document %d", i)
		sameDatabase(t, label, db, restored(t, label, db, 0, 1))
	}

	src := datagen.DBLP(datagen.DBLPConfig{Seed: 3, YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 10}).XMLString()
	parts, err := OpenSharded(context.Background(), strings.NewReader(src), int64(len(src)), 4)
	if err != nil || len(parts) != 4 {
		t.Fatalf("%d parts, err %v", len(parts), err)
	}
	for i, db := range parts {
		label := fmt.Sprintf("part %d of 4", i)
		sameDatabase(t, label, db, restored(t, label, db, i, len(parts)))
	}
}
