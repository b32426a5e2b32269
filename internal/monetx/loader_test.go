package monetx

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/datagen"
	"ncq/internal/pathsum"
	"ncq/internal/shard"
	"ncq/internal/xmltree"
)

// corpusDocs is the corpus the loader and view properties run over:
// random trees, the paper's Figure 1, and one document of each
// generator.
func corpusDocs() []*xmltree.Document {
	docs := []*xmltree.Document{
		xmltree.Fig1(),
		datagen.DBLP(datagen.DBLPConfig{Seed: 3, YearFrom: 1996, YearTo: 1999, PubsPerVenueYear: 6}),
		datagen.Multimedia(datagen.MultimediaConfig{Seed: 3, Items: 150, MaxProbeDistance: 20}),
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		docs = append(docs, xmltree.Random(r, 120))
	}
	return docs
}

func snapshotOf(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoaderEqualsLoadOfParse is the property that lets a parse shred
// without a tree: fed by the parser, the loader writes the store that
// Load writes from the parsed tree — byte-equal snapshots, the writer
// being deterministic — whole (k = 1) and part by part, against the
// trees xmltree.Documents builds of the same parse under the same cut.
func TestLoaderEqualsLoadOfParse(t *testing.T) {
	for i, doc := range corpusDocs() {
		src := doc.XMLString()
		for _, k := range []int{1, 3} {
			budget := int64(len(src) / k)
			var want [][]byte
			err := xmltree.ParseSplit(strings.NewReader(src), shard.StreamCut(budget, k), xmltree.Documents(func(d *xmltree.Document) error {
				s, err := Load(d)
				if err != nil {
					return err
				}
				want = append(want, snapshotOf(t, s))
				return nil
			}))
			if err != nil {
				t.Fatalf("doc %d, k=%d: trees: %v", i, k, err)
			}
			var got [][]byte
			err = xmltree.ParseSplit(strings.NewReader(src), shard.StreamCut(budget, k), NewLoader(func(s *Store) error {
				got = append(got, snapshotOf(t, s))
				return nil
			}))
			if err != nil {
				t.Fatalf("doc %d, k=%d: loader: %v", i, k, err)
			}
			if len(got) != len(want) {
				t.Fatalf("doc %d, k=%d: %d parts through the loader, %d through trees", i, k, len(got), len(want))
			}
			if k == 3 && doc.Len() > 1000 && len(got) < 2 {
				t.Fatalf("doc %d: %d nodes were not split", i, doc.Len())
			}
			for p := range got {
				if !bytes.Equal(got[p], want[p]) {
					t.Errorf("doc %d, k=%d, part %d: loader's store differs from Load(Parse)'s", i, k, p)
				}
			}
		}
	}
}

// The materialised edge relations the store used to build at load,
// kept as the oracle for the views that replaced them.
type materialised struct {
	edges map[pathsum.PathID]*bat.BAT[bat.OID]
}

func materialise(s *Store) materialised {
	m := materialised{map[pathsum.PathID]*bat.BAT[bat.OID]{}}
	for oid := bat.OID(1); int(oid) <= s.Len(); oid++ {
		pid := s.pathOf[oid]
		if p := s.parent[oid]; p != bat.Nil {
			if m.edges[pid] == nil {
				m.edges[pid] = bat.New[bat.OID](s.summary.String(pid))
			}
			m.edges[pid].Append(p, oid)
		}
	}
	return m
}

// children is the old Children: the edges headed by o on every child
// path, re-sorted by rank.
func (m materialised) children(s *Store, o bat.OID) []bat.OID {
	var out []bat.OID
	for _, cpid := range s.summary.Children(s.pathOf[o]) {
		if e := m.edges[cpid]; e != nil {
			for i := 0; i < e.Len(); i++ {
				if e.Head(i) == o {
					out = append(out, e.Tail(i))
				}
			}
		}
	}
	byRank := make([]bat.OID, len(out))
	for _, c := range out {
		byRank[s.rank[c]-1] = c
	}
	return byRank
}

// reversed swaps head and tail of every pair: the parent relation an
// edge relation implies.
func reversed(e *bat.BAT[bat.OID]) *bat.BAT[bat.OID] {
	if e == nil {
		return nil
	}
	r := bat.New[bat.OID]("rev")
	for i := 0; i < e.Len(); i++ {
		r.Append(e.Tail(i), e.Head(i))
	}
	return r
}

func sameBAT[T comparable](a, b *bat.BAT[T]) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Head(i) != b.Head(i) || a.Tail(i) != b.Tail(i) {
			return false
		}
	}
	return true
}

func TestViewsEqualMaterialised(t *testing.T) {
	for i, doc := range corpusDocs() {
		s, err := Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		m := materialise(s)
		for _, pid := range s.summary.AllPaths() {
			if got := s.Edges(pid); !sameBAT(got, m.edges[pid]) {
				t.Fatalf("doc %d: Edges(%s) = %v, want %v", i, s.summary.String(pid), got, m.edges[pid])
			}
			if rev := reversed(m.edges[pid]); !sameBAT(s.ParentBAT(pid), rev) {
				t.Fatalf("doc %d: ParentBAT(%s) = %v, want %v", i, s.summary.String(pid), s.ParentBAT(pid), rev)
			}
		}
		for o := bat.OID(1); int(o) <= s.Len(); o++ {
			kids := m.children(s, o)
			if got := s.Children(o); len(got) != len(kids) || len(kids) > 0 && !reflect.DeepEqual(got, kids) {
				t.Fatalf("doc %d: Children(%d) = %v, want %v", i, o, got, kids)
			}
			for j, c := range kids {
				next, prev := bat.Nil, bat.Nil
				if j+1 < len(kids) {
					next = kids[j+1]
				}
				if j > 0 {
					prev = kids[j-1]
				}
				if got := s.NextSibling(c); got != next {
					t.Fatalf("doc %d: NextSibling(%d) = %d, want %d", i, c, got, next)
				}
				if got := s.PrevSibling(c); got != prev {
					t.Fatalf("doc %d: PrevSibling(%d) = %d, want %d", i, c, got, prev)
				}
			}
		}
	}
}

// TestViewBuiltOnce races goroutines for the same views: all must get
// the one BAT (run under -race).
func TestViewBuiltOnce(t *testing.T) {
	s := fig1Store(t)
	art := mustPath(t, s, "bibliography", "institute", "article")
	const n = 8
	var wg sync.WaitGroup
	edges, revs := make([]*bat.BAT[bat.OID], n), make([]*bat.BAT[bat.OID], n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			edges[g], revs[g] = s.Edges(art), s.ParentBAT(art)
		}(g)
	}
	wg.Wait()
	for g := 1; g < n; g++ {
		if edges[g] != edges[0] || revs[g] != revs[0] {
			t.Fatalf("goroutine %d got its own view", g)
		}
	}
	if edges[0] == nil || edges[0].Len() != 2 {
		t.Fatalf("Edges(article) = %v", edges[0])
	}
}

// TestStatsCountsWhatIsResident pins the accounting: every per-OID
// array (five, rank included), the per-path OID lists and the string
// relations with their bytes — and no on-demand view, before or after
// one is built — computed once, the same for a snapshot's store.
func TestStatsCountsWhatIsResident(t *testing.T) {
	s := fig1Store(t)
	strs, strBytes := 0, 0
	for _, pid := range s.summary.AllPaths() {
		if rel := s.Strings(pid); rel != nil {
			for i := 0; i < rel.Len(); i++ {
				strs++
				strBytes += len(rel.Tail(i))
			}
		}
	}
	n := s.Len()
	want := 5*4*(n+1) + 4*n + strs*(4+16) + strBytes
	if got := s.Stats().MemBytes; got != want {
		t.Errorf("MemBytes = %d, want %d (5 arrays of %d, %d listed OIDs, %d strings of %d bytes)", got, want, n+1, n, strs, strBytes)
	}
	before := s.Stats()
	for _, pid := range s.summary.AllPaths() {
		s.Edges(pid)
		s.ParentBAT(pid)
	}
	if after := s.Stats(); after != before {
		t.Errorf("Stats changed once the views were built: %+v -> %+v", before, after)
	}
	if back := roundTripSnapshot(t, s).Stats(); back != before {
		t.Errorf("Stats of the snapshot's store = %+v, want %+v", back, before)
	}
}
