package ncq

// Allocation-regression pins for the columnar hot path: the locate memo
// makes a warm search read each term's owners without copying them,
// and the pooled roll-up scratch makes a warm meet allocate
// O(results). These ceilings are the measured steady state plus a
// small headroom for toolchain variance — a revert to per-query maps
// blows straight through them.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"unsafe"

	"ncq/internal/core"
	"ncq/internal/datagen"
)

func allocDB(t *testing.T) *Database {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("allocation pinning skipped in -short mode")
	}
	return fig1DB(t)
}

// TestSearchAllocsSteadyState pins the library's search door: a warm
// Locate reads each term's memoized owners, so it allocates the slice
// of sets and nothing else.
func TestSearchAllocsSteadyState(t *testing.T) {
	db := allocDB(t)
	ctx := context.Background()
	db.Locate(ctx, nil, "Ben") // warm the memo
	got := testing.AllocsPerRun(200, func() {
		if sets, err := db.Locate(ctx, nil, "Ben"); err != nil || len(sets[0]) != 1 {
			t.Fatalf("sets = %v, err = %v", sets, err)
		}
	})
	if got > 1 {
		t.Errorf("warm single-term Locate allocates %.0f/op, pinned at <= 1", got)
	}
}

func TestMeetOfTermsAllocsSteadyState(t *testing.T) {
	db := allocDB(t)
	if _, _, err := locateMeet(db, nil, "Bit", "1999"); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		meets, _, err := locateMeet(db, nil, "Bit", "1999")
		if err != nil || len(meets) != 1 {
			t.Fatalf("meets = %v, err = %v", meets, err)
		}
	})
	// Two substring searches, the pooled roll-up and the rendered meets,
	// in the order the roll-up emits them — no rank heap, merge or page.
	// Measured 7 (25 when the document-order meet ran through Run and
	// re-sorted): the set merge and the run merge work in pooled buffers.
	if got > 9 {
		t.Errorf("warm two-term Locate + MeetOf allocates %.0f/op, pinned at <= 9", got)
	}
}

// TestVagueTermMeetsAllocs pins what a warm vague request costs a member
// beyond the same exact request: its relaxBySlack counts and nothing
// else, because which paths the budget admits, at what slack, is read
// from the member's plan memo. Relaxing the pattern on every request,
// as the member did before, allocated the admissible set, the slack map
// and the relaxation's scratch each time.
func TestVagueTermMeetsAllocs(t *testing.T) {
	db := allocDB(t)
	ctx := context.Background()
	terms := []string{"Bit", "1999"}
	opt := ExcludeRoot().Restrict("//article")
	measure := func(vg *Vague) (allocs float64, meets int) {
		sh, err := opt.shape(vg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			s, err := db.termMeetsStream(ctx, terms, nil, opt, sh, vg)
			if err != nil {
				t.Fatal(err)
			}
			meets = s.pending()
		}
		run() // warm the plan memo, the locate memo and the pools
		return testing.AllocsPerRun(200, run), meets
	}
	exact, exactMeets := measure(nil)
	vague, vagueMeets := measure(&Vague{MaxSlack: 2})
	if exactMeets == 0 || vagueMeets != exactMeets {
		t.Fatalf("exact and vague requests give %d and %d meets: the pin compares equal answers", exactMeets, vagueMeets)
	}
	if vague > exact+1 {
		t.Errorf("a warm vague request allocates %.0f/op, the exact one %.0f: pinned at one more, its relaxBySlack", vague, exact)
	}
}

// TestTopKRendersOnlyYielded pins what a top-K page costs per
// candidate it does not return. The same request runs over one corpus
// twice, the second time generated with four times the publications
// per venue and year, so four times the candidates.
//
// A candidate costs no allocation at all: the roll-up writes it as a
// row and its witnesses into the member's pooled columns, and the rank
// order comes from the same pool, so a page's total allocations must
// not follow the candidate count. And the public Meet is rendered —
// its witnesses copied out of the columns — when the merge yields it
// and nowhere else: the merge's heads are rank keys, so a page of 10
// renders 10 meets however many members and candidates there are.
// Rendering every candidate up front, or every member's head, breaks
// the second half; a per-candidate allocation anywhere (a witness
// slice per meet, an unpooled order or result column) breaks the
// first.
func TestTopKRendersOnlyYielded(t *testing.T) {
	allocDB(t) // the skip rules of this file
	const members, limit = 6, 10
	ctx := context.Background()
	req := Request{Terms: []string{"ICDE", "1999"}, Options: ExcludeRoot(), Limit: limit}

	measure := func(pubs int) (candidates, total, overhead, rendered int) {
		c := NewCorpus()
		dbs := make([]*Database, members)
		for i := range dbs {
			db, err := fromDocument(datagen.DBLP(datagen.DBLPConfig{
				Seed: int64(i + 1), YearFrom: 1995, YearTo: 1999, PubsPerVenueYear: pubs,
			}))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Add(fmt.Sprintf("bib%d", i), db); err != nil {
				t.Fatal(err)
			}
			dbs[i] = db
		}
		drain := func() {
			seq, stats := c.ResultsWithStats(ctx, req)
			n := 0
			for _, err := range seq {
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			if n != limit {
				t.Fatalf("pubs=%d: drained %d meets, want %d", pubs, n, limit)
			}
			candidates = stats.Total
		}
		drain() // warm the pools
		total = int(testing.AllocsPerRun(20, drain))
		overhead = total - candidates

		// The same page through the members' own streams, rewound before
		// every merge, to count renders: a merge allocates itself and its
		// heads, and a rendered term meet allocates its witness copy.
		streams := make([]memberStream[CorpusMeet], members)
		sh, err := req.Options.shape(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, db := range dbs {
			s, err := db.termMeetsStream(ctx, req.Terms, nil, req.Options, sh, nil)
			if err != nil {
				t.Fatal(err)
			}
			streams[i] = s
		}
		page := func() {
			for _, s := range streams {
				s.(*localStream).pos = 0
			}
			g, err := newMerger(streams)
			if err != nil {
				t.Fatal(err)
			}
			for i := range limit {
				if m, ok, err := g.pop(true); err != nil || !ok || len(m.Witnesses) == 0 {
					t.Fatalf("pubs=%d: after %d meets, ok %t and err %v, or a meet without witnesses", pubs, i, ok, err)
				}
			}
		}
		rendered = int(testing.AllocsPerRun(20, page)) - 2
		return candidates, total, overhead, rendered
	}

	small, smallTotal, smallOver, smallRendered := measure(10)
	large, largeTotal, largeOver, largeRendered := measure(40)
	if large != 4*small {
		t.Fatalf("candidates %d and %d: the second corpus should hold four times the first", small, large)
	}
	// Measured 52 allocations in all at both 60 and 240 candidates:
	// beyond one per candidate, -8 and -188. With a result slice and a
	// witness list per candidate they were 138 and 330, and with a rank
	// heap whose heads were rendered meets 57 and 58.
	t.Logf("%d candidates: %d allocations; %d candidates: %d", small, smallTotal, large, largeTotal)
	if largeTotal > smallTotal+members {
		t.Errorf("a page allocates %d with %d candidates and %d with %d: pinned flat, at +%d", smallTotal, small, largeTotal, large, members)
	}
	if smallOver > 130 {
		t.Errorf("%d candidates: %d allocations beyond one per candidate, pinned at <= 130", small, smallOver)
	}
	if largeOver > smallOver+3*members {
		t.Errorf("allocations beyond one per candidate grew from %d to %d with 4x the candidates, pinned at +%d", smallOver, largeOver, 3*members)
	}
	if want := limit; smallRendered != want || largeRendered != want {
		t.Errorf("rendered %d of %d and %d of %d candidates, want %d both times", smallRendered, small, largeRendered, large, want)
	}
}

// TestPutDocAllocCeiling pins what an upload allocates: the call
// PUT /v1/docs/{name} makes, OpenSharded, on a fixed 9 k-node DBLP
// document. With one shard, shredding inside the parse — no token
// objects, no tree, no edge or rank relations — and building only the
// index locate reads measures 5.1 k allocations, little more than one
// per stored string; with the token postings filled on every upload it
// was 18.4 k, through encoding/xml and a tree 69.2 k. With four shards
// and a known size — the node-count policy — it measures 10.7 k: each
// shard interns its own values, and nothing is allocated per node. When
// that policy parsed into a tree and copied it into its shards it was
// 54.1 k, and the 17 bytes per XML byte they held for the length of the
// upload moved a node's peak RSS by 40 MiB from one start to the next.
// The ceilings are the measurements plus a fifth.
func TestPutDocAllocCeiling(t *testing.T) {
	allocDB(t) // the skip rules of this file
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1996, YearTo: 1999, PubsPerVenueYear: 30})
	src := doc.XMLString()
	for _, c := range []struct {
		k       int
		ceiling float64
	}{{1, 6160}, {4, 12820}} {
		got := testing.AllocsPerRun(5, func() {
			dbs, err := OpenSharded(strings.NewReader(src), int64(len(src)), c.k)
			nodes := 0
			for _, db := range dbs {
				nodes += db.Len()
			}
			if err != nil || len(dbs) != c.k || nodes != doc.Len()+c.k-1 { // every shard has the root
				t.Fatalf("OpenSharded: %d databases of %d nodes, err = %v", len(dbs), nodes, err)
			}
		})
		t.Logf("%d nodes, %d bytes, %d shard(s): %.0f allocations", doc.Len(), len(src), c.k, got)
		if got > c.ceiling {
			t.Errorf("an upload of %d nodes into %d shard(s) allocates %.0f, pinned at <= %.0f", doc.Len(), c.k, got, c.ceiling)
		}
	}
}

// TestRenderAllocsFlat pins what printing from the columns costs:
// Subtree of a DBLP record and WriteXML of the whole 47 k-node member
// are the store's walk over the preorder interval into the one writer,
// so neither allocates per node — a writer, its buffer and stack, and
// the walk's cursor per string relation, 9 and 8 allocations measured.
// Through a tree reassembled from the columns and then printed they
// were 84 and 221,480.
func TestRenderAllocsFlat(t *testing.T) {
	allocDB(t) // the skip rules of this file
	db, err := fromDocument(datagen.DBLP(datagen.DBLPConfig{Seed: 1010, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 40}))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Children(db.Root())[0]
	if xml, err := db.Subtree(rec); err != nil || !strings.HasPrefix(xml, "<inproceedings ") {
		t.Fatalf("Subtree(%d) = %.40q, %v", rec, xml, err)
	}
	sub := testing.AllocsPerRun(50, func() {
		if _, err := db.Subtree(rec); err != nil {
			t.Fatal(err)
		}
	})
	whole := testing.AllocsPerRun(3, func() {
		if err := db.WriteXML(io.Discard, true); err != nil {
			t.Fatal(err)
		}
	})
	if sub > 12 || whole > 12 {
		t.Errorf("Subtree of a %d-node record allocates %.0f, WriteXML of %d nodes %.0f: pinned at <= 12 each",
			db.store.End(rec)-rec+1, sub, db.Len(), whole)
	}
}

// TestPipelineStructSizes pins the two structs a request allocates per
// member at the allocation classes they fill: one more word in
// localStream takes it from the 96-byte class to the 112-byte one, and
// a merge head — a rank key, not a rendered meet — is copied on every
// sift. A core.Row is one meet of a member's answer column, moved by
// the document-order sort.
func TestPipelineStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(core.Row{}); got > 24 {
		t.Errorf("core.Row is %d bytes, pinned at <= 24", got)
	}
	if got := unsafe.Sizeof(localStream{}); got > 96 {
		t.Errorf("localStream is %d bytes, pinned at <= 96", got)
	}
	if got := unsafe.Sizeof(head{}); got > 48 {
		t.Errorf("a merge head is %d bytes, pinned at <= 48", got)
	}
}
