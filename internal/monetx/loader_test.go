package monetx

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
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
// kept as the oracle for what replaced them.
type materialised struct {
	edges map[pathsum.PathID]*bat.BAT
}

func materialise(s *Store) materialised {
	m := materialised{map[pathsum.PathID]*bat.BAT{}}
	for oid := bat.OID(1); int(oid) <= s.Len(); oid++ {
		pid := s.pathOf[oid]
		if p := s.parent[oid]; p != bat.Nil {
			if m.edges[pid] == nil {
				m.edges[pid] = bat.New(s.summary.String(pid))
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
		byRank[s.Rank(c)-1] = c
	}
	return byRank
}

// TestViewsEqualMaterialised holds what replaced the edge relations to
// them: each element path's OIDs paired with their parents, as the
// Figure-2 dump prints them, and Children and the sibling steps.
func TestViewsEqualMaterialised(t *testing.T) {
	for i, doc := range corpusDocs() {
		s, err := Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		m := materialise(s)
		for _, pid := range s.summary.ElemPaths() {
			e := m.edges[pid]
			if e == nil { // the root path
				if oids := s.OIDsAt(pid); len(oids) != 1 || oids[0] != s.Root() {
					t.Fatalf("doc %d: OIDsAt(%s) = %v, want the root alone", i, s.summary.String(pid), oids)
				}
				continue
			}
			oids := s.OIDsAt(pid)
			if len(oids) != e.Len() {
				t.Fatalf("doc %d: %d OIDs at %s, %d edges", i, len(oids), s.summary.String(pid), e.Len())
			}
			for j, o := range oids {
				if s.Parent(o) != e.Head(j) || o != e.Tail(j) {
					t.Fatalf("doc %d: edge %d at %s is (%d, %d), want (%d, %d)", i, j, s.summary.String(pid), s.Parent(o), o, e.Head(j), e.Tail(j))
				}
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

// TestViewBuiltOnce races goroutines for the OID lists of a fresh
// store: all must get the one slice (run under -race).
func TestViewBuiltOnce(t *testing.T) {
	s := fig1Store(t)
	art := mustPath(t, s, "bibliography", "institute", "article")
	const n = 8
	var wg sync.WaitGroup
	oids := make([][]bat.OID, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			oids[g] = s.OIDsAt(art)
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if len(oids[g]) != 2 || &oids[g][0] != &oids[0][0] {
			t.Fatalf("goroutine %d got its own view: %v", g, oids[g])
		}
	}
}

// TestDerivedDepthAndRankExact holds the derived Depth and Rank to the
// tree: over random documents and one chain nested to pathsum.MaxDepth,
// through every loader door — a parse into the loader, Load of the
// tree, a split parse under a cut and a snapshot's replay — every
// node's Depth is its number of ancestors and its Rank its 1-based
// index among its siblings, and no door builds the OID lists.
func TestDerivedDepthAndRankExact(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	srcs := []string{strings.Repeat("<a>", pathsum.MaxDepth-2) + "<b>x</b><c>y</c>" + strings.Repeat("</a>", pathsum.MaxDepth-2)}
	for i := 0; i < 200; i++ {
		srcs = append(srcs, xmltree.Random(r, 150).XMLString())
	}
	check := func(what string, s *Store, d *xmltree.Document) {
		t.Helper()
		if s.Len() != d.Len() {
			t.Fatalf("%s: %d nodes, the tree has %d", what, s.Len(), d.Len())
		}
		if s.oidsAt != nil {
			t.Fatalf("%s: the load built the OID lists", what)
		}
		for o := bat.OID(1); int(o) <= s.Len(); o++ {
			n, depth, rank := d.Node(o), 0, 1
			for p := n.Parent; p != nil; p = p.Parent {
				depth++
			}
			if n.Parent != nil {
				rank += slices.Index(n.Parent.Children, n)
			}
			if s.Depth(o) != depth || s.Rank(o) != rank {
				t.Fatalf("%s: node %d has Depth %d and Rank %d, in the tree %d and %d", what, o, s.Depth(o), s.Rank(o), depth, rank)
			}
		}
	}
	split := 0 // documents the cut split
	keep := func(out *[]*Store) *Loader {
		return NewLoader(func(s *Store) error { *out = append(*out, s); return nil })
	}
	for i, src := range srcs {
		d, err := xmltree.Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var parsed, replayed []*Store
		if err := xmltree.ParseSplit(strings.NewReader(src), nil, keep(&parsed)); err != nil || len(parsed) != 1 {
			t.Fatalf("doc %d: %d parts, err %v", i, len(parsed), err)
		}
		loaded, err := Load(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReplaySnapshot(bytes.NewReader(snapshotOf(t, parsed[0])), keep(&replayed)); err != nil || len(replayed) != 1 {
			t.Fatalf("doc %d: %d replayed, err %v", i, len(replayed), err)
		}
		check(fmt.Sprintf("doc %d parsed", i), parsed[0], d)
		check(fmt.Sprintf("doc %d loaded", i), loaded, d)
		check(fmt.Sprintf("doc %d replayed", i), replayed[0], d)

		cut := func() func(int64) bool { return shard.StreamCut(int64(len(src)/3), 3) }
		var trees []*xmltree.Document
		var parts []*Store
		if err := xmltree.ParseSplit(strings.NewReader(src), cut(), xmltree.Documents(func(d *xmltree.Document) error { trees = append(trees, d); return nil })); err != nil {
			t.Fatal(err)
		}
		if err := xmltree.ParseSplit(strings.NewReader(src), cut(), keep(&parts)); err != nil || len(parts) != len(trees) {
			t.Fatalf("doc %d split: %d parts, %d trees, err %v", i, len(parts), len(trees), err)
		}
		for p := range parts {
			check(fmt.Sprintf("doc %d part %d", i, p), parts[p], trees[p])
		}
		if len(parts) > 1 {
			split++
		}
	}
	if split < len(srcs)/4 {
		t.Errorf("the cut split %d of %d documents", split, len(srcs))
	}
}

// TestStringsBuiltOnFirstUse pins the string relations as derived, never
// resident: Text, AttrValue, Emit, WriteSnapshot, PathInfos and
// DumpTransform read them off the association table on each use and
// build nothing — not the OID lists, no second copy of the table's
// columns, no change to Stats — and a second use reads the same
// relations.
func TestStringsBuiltOnFirstUse(t *testing.T) {
	s := fig1Store(t)
	owners, paths, vals, values := s.Table()
	before := s.Stats()
	for o := bat.OID(1); int(o) <= s.Len(); o++ {
		s.Text(o)
		s.AttrValue(o, "key")
	}
	if err := s.Emit(s.Root(), xmltree.NewWriter(io.Discard, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	s.PathInfos()
	if s.oidsAt != nil {
		t.Fatal("a look-up, Emit, WriteSnapshot or PathInfos built the OID lists")
	}
	key, ok := s.Summary().LookupAttr([]string{"bibliography", "institute", "article"}, "key")
	if !ok {
		t.Fatal("article@key not in summary")
	}
	const keyLine = `/bibliography/institute/article@key = {⟨o3,"BB99"⟩, ⟨o13,"BK99"⟩}`
	var firstDump string
	var firstInfos []PathInfo
	for use := range 2 {
		var b strings.Builder
		if err := s.DumpTransform(&b, 0); err != nil {
			t.Fatal(err)
		}
		infos := s.PathInfos()
		if !strings.Contains(b.String(), keyLine+"\n") {
			t.Fatalf("use %d: DumpTransform lacks %q:\n%s", use, keyLine, b.String())
		}
		if infos[key].Count != 2 || !infos[key].Attr {
			t.Errorf("use %d: PathInfos[article@key] = %+v, want an attribute path of 2 strings", use, infos[key])
		}
		if use == 0 {
			firstDump, firstInfos = b.String(), infos
		} else if b.String() != firstDump || !reflect.DeepEqual(infos, firstInfos) {
			t.Errorf("a second use read other string relations")
		}
		o2, p2, v2, vs2 := s.Table()
		if &o2[0] != &owners[0] || &p2[0] != &paths[0] || &v2[0] != &vals[0] || &vs2[0] != &values[0] ||
			len(o2) != len(owners) || len(vs2) != len(values) {
			t.Errorf("use %d moved the association table", use)
		}
		if after := s.Stats(); after != before {
			t.Errorf("use %d changed Stats: %+v -> %+v", use, before, after)
		}
	}
}

// TestOIDListsBuiltOnFirstUse pins the per-path OID lists as a view: a
// loaded store has none, and OIDsAt and DumpTransform each build them
// on a fresh store — once, so a second use reads the same slices.
func TestOIDListsBuiltOnFirstUse(t *testing.T) {
	art := mustPath(t, fig1Store(t), "bibliography", "institute", "article")
	for name, use := range map[string]func(s *Store){
		"OIDsAt":        func(s *Store) { s.OIDsAt(art) },
		"DumpTransform": func(s *Store) { s.DumpTransform(io.Discard, 0) },
	} {
		s := fig1Store(t)
		if s.oidsAt != nil {
			t.Fatalf("%s: a loaded store has its OID lists", name)
		}
		use(s)
		first := s.oidsAt
		if first == nil || len(first[art]) != 2 {
			t.Fatalf("%s did not build the OID lists: %v", name, first)
		}
		use(s)
		if &s.oidsAt[0] != &first[0] || &s.oidsAt[art][0] != &first[art][0] {
			t.Errorf("%s built the OID lists twice", name)
		}
	}
}

// TestStatsCountsWhatIsResident pins the accounting: every per-OID
// array (three: parent, path and end), the association table's three
// columns and its distinct values with their bytes, its rows and values
// counted off the tree — and not the OID lists, before or after they are
// built — computed once, the same for a snapshot's store.
func TestStatsCountsWhatIsResident(t *testing.T) {
	s := fig1Store(t)
	rows, distinct := 0, map[string]bool{}
	xmltree.Fig1().Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.CData {
			rows++
			distinct[n.Text] = true
		}
		for _, a := range n.Attrs {
			rows++
			distinct[a.Value] = true
		}
		return true
	})
	valueBytes := 0
	for v := range distinct {
		valueBytes += len(v)
	}
	n := s.Len()
	want := 3*4*(n+1) + 3*4*rows + 16*len(distinct) + valueBytes
	if got := s.Stats().MemBytes; got != want {
		t.Errorf("MemBytes = %d, want %d (3 arrays of %d, 3 columns of %d rows, %d values of %d bytes)", got, want, n+1, rows, len(distinct), valueBytes)
	}
	before := s.Stats()
	s.OIDsAt(s.summary.Root())
	if after := s.Stats(); after != before {
		t.Errorf("Stats changed once the OID lists were built: %+v -> %+v", before, after)
	}
	if back := roundTripSnapshot(t, s).Stats(); back != before {
		t.Errorf("Stats of the snapshot's store = %+v, want %+v", back, before)
	}
}

// TestResidentColumnsExact pins the other half of Stats' accounting:
// it counts lengths, so no resident column may have slack — neither the
// three per-OID arrays nor the association table's columns and values,
// after a parse-load, a tree's load and a snapshot's read — and, once
// built, neither may the per-path OID lists. The values of each are
// substrings of one string of exactly their bytes.
func TestResidentColumnsExact(t *testing.T) {
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1990, YearTo: 1999, PubsPerVenueYear: 10})
	var parsed *Store
	if err := xmltree.ParseSplit(strings.NewReader(doc.XMLString()), nil, NewLoader(func(s *Store) error { parsed = s; return nil })); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	for how, s := range map[string]*Store{"parse": parsed, "load": loaded, "snapshot": roundTripSnapshot(t, parsed)} {
		noSlack := func(name string, col reflect.Value) {
			if col.Len() != col.Cap() {
				t.Errorf("%s: %s has capacity %d for %d entries", how, name, col.Cap(), col.Len())
			}
		}
		for name, col := range map[string]any{"parent": s.parent, "pathOf": s.pathOf, "end": s.end,
			"owners": s.owners, "paths": s.paths, "vals": s.vals, "values": s.values} {
			noSlack(name, reflect.ValueOf(col))
		}
		if !oneString(s.values) {
			t.Errorf("%s: the %d values are not substrings of one exact string", how, len(s.values))
		}
		s.OIDsAt(s.summary.Root())
		for pid, oids := range s.oidsAt {
			noSlack(s.summary.String(pathsum.PathID(pid))+" OIDs", reflect.ValueOf(oids))
		}
	}
}

// loadSnapshots parses src through a loader — cut into parts by cut,
// when not nil — and returns each part's snapshot bytes.
func loadSnapshots(t testing.TB, src string, cut func(int64) bool) ([][]byte, error) {
	var out [][]byte
	err := xmltree.ParseSplit(strings.NewReader(src), cut, NewLoader(func(s *Store) error {
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
		return nil
	}))
	return out, err
}

// coldSnapshots is loadSnapshots on fresh scratch: the kept set is
// dropped first.
func coldSnapshots(t testing.TB, src string, cut func(int64) bool) ([][]byte, error) {
	kept.Store(nil)
	return loadSnapshots(t, src, cut)
}

func sameParts(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

// TestLoaderScratchReuse loads on scratch another document left behind
// — big, small, big again, a failed parse then a good one, a 4-way
// split — and holds every result to the snapshot bytes of the same
// load on fresh scratch.
func TestLoaderScratchReuse(t *testing.T) {
	big := datagen.DBLP(datagen.DBLPConfig{Seed: 2, YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: 8}).XMLString()
	small := xmltree.Fig1().XMLString()
	steps := []struct {
		name  string
		src   string
		parts int
		fail  bool
	}{
		{"big", big, 1, false},
		{"small", small, 1, false},
		{"big again", big, 1, false},
		{"failed parse", big[:len(big)-20], 1, true},
		{"after the failure", small, 1, false},
		{"4-way split", big, 4, false},
	}
	// cut is a fresh StreamCut per parse: it counts the parts it cut.
	cut := func(src string, parts int) func(int64) bool {
		return shard.StreamCut(int64(len(src)/parts), parts)
	}
	want := make([][][]byte, len(steps))
	for i, st := range steps {
		if !st.fail {
			var err error
			if want[i], err = coldSnapshots(t, st.src, cut(st.src, st.parts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	kept.Store(nil)
	for i, st := range steps {
		warm := kept.Load() != nil
		got, err := loadSnapshots(t, st.src, cut(st.src, st.parts))
		switch {
		case st.fail:
			if err == nil {
				t.Fatalf("%s: accepted", st.name)
			}
			if kept.Load() != nil {
				t.Fatalf("%s: the failed load gave its scratch back", st.name)
			}
			continue
		case err != nil:
			t.Fatalf("%s: %v", st.name, err)
		case i > 0 && steps[i-1].fail == warm: // only a completed load leaves a set behind
			t.Fatalf("%s: warm = %v after the previous load", st.name, warm)
		case !sameParts(got, want[i]):
			t.Errorf("%s: the load on reused scratch differs from one on fresh scratch", st.name)
		}
		if st.parts > 1 && len(got) < 2 {
			t.Errorf("%s: %d parts", st.name, len(got))
		}
		if sc := kept.Load(); sc == nil || holdsValues(sc) {
			t.Errorf("%s: the kept scratch is missing or holds values", st.name)
		}
	}
}

// holdsValues reports whether a kept scratch set's interner still holds
// a value. The set holds no string: its associations and its interner
// keep offsets into the arena.
func holdsValues(sc *scratch) bool {
	return len(sc.in.spans) > 0 || len(sc.in.ids) > 0 || slices.ContainsFunc(sc.in.slots, func(x uint32) bool { return x != 0 })
}

// TestLoaderScratchConcurrent runs loads on four goroutines at once, so
// they contend for the one kept set (run under -race): each result must
// equal its load on fresh scratch.
func TestLoaderScratchConcurrent(t *testing.T) {
	srcs := []string{
		xmltree.Fig1().XMLString(),
		datagen.DBLP(datagen.DBLPConfig{Seed: 3, YearFrom: 1998, YearTo: 1999, PubsPerVenueYear: 5}).XMLString(),
		datagen.Multimedia(datagen.MultimediaConfig{Seed: 3, Items: 60, MaxProbeDistance: 8}).XMLString(),
	}
	want := make([][][]byte, len(srcs))
	for i, src := range srcs {
		var err error
		if want[i], err = coldSnapshots(t, src, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(srcs)
				got, err := loadSnapshots(t, srcs[k], nil)
				if err != nil || !sameParts(got, want[k]) {
					t.Errorf("goroutine %d, load %d of document %d: err %v, or bytes differ from a fresh load", g, i, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLoaderScratchBound pins MaxKeptRows: a document past it, in nodes
// or in string associations, leaves the slot empty, and so does one
// whose values take more than maxKeptText bytes.
func TestLoaderScratchBound(t *testing.T) {
	for name, src := range map[string]string{
		"nodes":   "<r>" + strings.Repeat("<n/>", MaxKeptRows) + "</r>",
		"strings": "<r>" + strings.Repeat(`<n a="1" b="2"/>`, MaxKeptRows/2+1) + "</r>",
		"text":    "<r><n>" + strings.Repeat("x", maxKeptText+1) + "</n></r>",
	} {
		kept.Store(nil)
		if _, err := loadSnapshots(t, "<r><n/></r>", nil); err != nil || kept.Load() == nil {
			t.Fatalf("%s: a small load kept nothing (err %v)", name, err)
		}
		if _, err := loadSnapshots(t, src, nil); err != nil {
			t.Fatal(err)
		}
		if kept.Load() != nil {
			t.Errorf("%s: scratch past %d rows was kept", name, MaxKeptRows)
		}
	}
}

// FuzzLoaderReuse loads two inputs back to back, each cut into parts:
// the second, on whatever scratch the first left, must equal its load
// on fresh scratch — refused alike, or byte-equal part by part.
func FuzzLoaderReuse(f *testing.F) {
	f.Add(xmltree.Fig1().XMLString(), "<a><b x='1'>t</b><c/></a>")
	f.Add("<a><b>unclosed", "<a>x</a>")
	f.Add("<r><n a='1' b='2'/><n/></r>", xmltree.Fig1().XMLString())
	f.Fuzz(func(t *testing.T, first, second string) {
		cut := func(span int64) bool { return span >= 16 }
		want, wantErr := coldSnapshots(t, second, cut)
		loadSnapshots(t, first, cut)
		got, err := loadSnapshots(t, second, cut)
		if (err == nil) != (wantErr == nil) || !sameParts(got, want) {
			t.Fatalf("after %q, %q loads to %d parts (%v), on fresh scratch %d parts (%v)", first, second, len(got), err, len(want), wantErr)
		}
	})
}
