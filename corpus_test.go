package ncq

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ncq/internal/xmltree"
)

// Two bibliographies with completely different mark-up for the same
// item — the scenario of Section 4's cross-bibliography application.
const otherMarkup = `<refs>
  <entry>
    <who>Ben Bit</who>
    <what>How to Hack</what>
    <when>1999</when>
  </entry>
  <entry>
    <who>Carol Code</who>
    <what>Sorting Things</what>
    <when>1997</when>
  </entry>
</refs>`

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	db1, err := fromDocument(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	db2, err := OpenString(otherMarkup)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("cwi", db1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("personal", db2); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusBasics(t *testing.T) {
	c := testCorpus(t)
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "cwi" || names[1] != "personal" {
		t.Errorf("Names = %v", names)
	}
	if _, ok := c.Get("cwi"); !ok {
		t.Error("Get(cwi) failed")
	}
	if _, ok := c.Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
	if err := c.Add("x", nil); err == nil {
		t.Error("nil database accepted")
	}
	// Replacing keeps the position and count, and Put reports it.
	db, _ := c.Get("cwi")
	replaced, err := c.Put("cwi", db)
	if err != nil || !replaced {
		t.Errorf("Put(cwi) = %t, %v; want replaced", replaced, err)
	}
	if c.Len() != 2 {
		t.Errorf("Len after replace = %d", c.Len())
	}
	if replaced, err := c.Put("fresh", db); err != nil || replaced {
		t.Errorf("Put(fresh) = %t, %v; want created", replaced, err)
	}
	if !c.Remove("fresh") {
		t.Error("Remove(fresh) failed")
	}
	if c.Remove("fresh") {
		t.Error("Remove(fresh) succeeded twice")
	}
	if gen := c.Generation(); gen != 5 {
		t.Errorf("Generation = %d, want 5 (2 adds + replace + put + remove)", gen)
	}
}

// TestCorpusFindsItemUnderBothMarkups is the paper's cross-bibliography
// scenario: the same publication is found in both files although one
// marks it up as article/author/year and the other as entry/who/when —
// and the answer's type differs per instance.
func TestCorpusFindsItemUnderBothMarkups(t *testing.T) {
	c := testCorpus(t)
	res, err := c.Run(context.Background(), Request{Terms: []string{"Bit", "1999"}, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	bySource := map[string]string{}
	for _, m := range res.Meets {
		bySource[m.Source] = m.Tag
	}
	if bySource["cwi"] != "article" {
		t.Errorf("cwi concept = %q, want article", bySource["cwi"])
	}
	if bySource["personal"] != "entry" {
		t.Errorf("personal concept = %q, want entry", bySource["personal"])
	}
}

func TestCorpusRanking(t *testing.T) {
	c := testCorpus(t)
	res, err := c.Run(context.Background(), Request{Terms: []string{"Bit", "1999"}, Options: ExcludeRoot()})
	if err != nil {
		t.Fatal(err)
	}
	meets := res.Meets
	for i := 1; i < len(meets); i++ {
		if meets[i].Distance < meets[i-1].Distance {
			t.Errorf("results not ranked by distance: %+v", meets)
		}
	}
}

func TestCorpusTermMissingEverywhere(t *testing.T) {
	c := testCorpus(t)
	res, err := c.Run(context.Background(), Request{Terms: []string{"absent", "alsoabsent"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Meets) != 0 {
		t.Errorf("meets = %+v", res.Meets)
	}
}

func TestExplain(t *testing.T) {
	db := fig1DB(t)
	meets, _, err := locateMeet(db, nil, "Bit", "1999")
	if err != nil {
		t.Fatal(err)
	}
	text, err := db.Explain(meets[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<article>", "lastname/cdata", `"Bit"`, "year/cdata", `"1999"`} {
		if !contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	// A meet whose witness is the concept itself.
	meets, _, err = db.MeetOf(context.Background(), nil, []NodeID{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	text, err = db.Explain(meets[0])
	if err != nil {
		t.Fatal(err)
	}
	if !contains(text, "(the concept itself)") {
		t.Errorf("Explain self-witness:\n%s", text)
	}
	// Bogus meet surfaces an error.
	if _, err := db.Explain(Meet{Node: 3, Witnesses: []NodeID{19}}); err == nil {
		t.Error("Explain with foreign witness succeeded")
	}
}

func TestPathBetweenAndContextFacade(t *testing.T) {
	db := fig1DB(t)
	p, err := db.PathBetween(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 5 || p[0] != 6 || p[4] != 8 {
		t.Errorf("PathBetween = %v", p)
	}
	ctx, err := db.Context(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx) != 3 || ctx[0] != "author" {
		t.Errorf("Context = %v", ctx)
	}
	if _, err := db.PathBetween(0, 8); err == nil {
		t.Error("invalid node accepted")
	}
	if _, err := db.Context(8, 3); err == nil {
		t.Error("non-ancestor accepted")
	}
}

func TestThesaurusFacade(t *testing.T) {
	db := fig1DB(t)
	ctx := context.Background()
	// An entry matches as written: "Bob" finds Bob Byte (o15).
	th := NewThesaurus().Add("robert", "Bob")
	sets, err := db.Locate(ctx, th, "robert")
	if err != nil || !reflect.DeepEqual(sets, [][]NodeID{{15}}) {
		t.Errorf("Locate(th, robert) = %v, %v", sets, err)
	}
	if sets, err := db.Locate(ctx, nil, "Ben"); err != nil || len(sets[0]) != 1 {
		t.Errorf("nil thesaurus = %v, %v", sets, err)
	}
	// Broadened meet: 'robert' alone finds nothing to meet with; with
	// the thesaurus it reaches Bob Byte's article via 1999.
	sets, err = db.Locate(ctx, th, "robert", "1999")
	if err != nil {
		t.Fatal(err)
	}
	meets, _, err := db.MeetOf(ctx, ExcludeRoot(), sets...)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range meets {
		if m.Node == 13 && m.Tag == "article" {
			found = true
		}
	}
	if !found {
		t.Errorf("broadened meet missed the second article: %+v", meets)
	}
	// Nil thesaurus falls back to the plain path.
	plain, _, err := locateMeet(db, nil, "Bit", "1999")
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0].Node != 3 {
		t.Errorf("nil-thesaurus meet = %+v", plain)
	}
	if th.Expand("robert")[0] != "Bob" {
		t.Errorf("Expand = %v", th.Expand("robert"))
	}
}

func contains(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}

// TestCorpusCommitRefused pins commit before apply: persist sees the
// generation the change will produce, and a refusal — of a new member,
// a replacement or an eviction — leaves membership and generation as
// they were.
func TestCorpusCommitRefused(t *testing.T) {
	c := NewCorpus()
	db := fig1DB(t)
	if err := c.Add("a", db); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddSharded("b", xmltree.Fig1(), 4); err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(c.Names(), c.Generation(), c.ShardCount("a"), c.ShardCount("b"))
	refused := errors.New("refused")
	for _, tc := range []struct {
		name    string
		dbs     []*Database
		sharded bool
	}{
		{"new", []*Database{db}, false},
		{"a", []*Database{db, db}, true}, // replace
		{"b", nil, false},                // evict
	} {
		var saw uint64
		_, err := c.Commit(tc.name, tc.dbs, tc.sharded, func(gen uint64) error {
			saw = gen
			return refused
		})
		if !errors.Is(err, refused) {
			t.Errorf("Commit(%q) = %v, want the persist error", tc.name, err)
		}
		if saw != c.Generation()+1 {
			t.Errorf("Commit(%q): persist saw generation %d, want %d", tc.name, saw, c.Generation()+1)
		}
		if after := fmt.Sprint(c.Names(), c.Generation(), c.ShardCount("a"), c.ShardCount("b")); after != before {
			t.Errorf("refused Commit(%q) changed the corpus: %s, was %s", tc.name, after, before)
		}
	}
	// Accepted, the change applies at the generation persist saw.
	var saw uint64
	existed, err := c.Commit("b", nil, false, func(gen uint64) error { saw = gen; return nil })
	if err != nil || !existed || saw != 3 || c.Generation() != 3 || c.Has("b") {
		t.Errorf("evict b = %v, %v; persist saw %d; generation %d, has b %v", existed, err, saw, c.Generation(), c.Has("b"))
	}
	// Evicting an absent name changes nothing and persists nothing.
	existed, err = c.Commit("b", nil, false, func(uint64) error { t.Error("persist ran for an absent name"); return nil })
	if err != nil || existed || c.Generation() != 3 {
		t.Errorf("evict absent b = %v, %v; generation %d", existed, err, c.Generation())
	}
	if _, err := c.Commit("c", []*Database{db, db}, false, nil); err == nil {
		t.Error("a plain member of two databases accepted")
	}
}

func TestCorpusCommitShardedAndRestoreGeneration(t *testing.T) {
	c := NewCorpus()
	db := fig1DB(t)
	if _, err := c.Commit("x", []*Database{}, true, nil); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := c.Commit("x", []*Database{db, nil}, true, nil); err == nil {
		t.Error("nil shard accepted")
	}
	replaced, err := c.Commit("x", []*Database{db, db}, true, nil)
	if err != nil || replaced {
		t.Fatalf("Commit = %v, %v", replaced, err)
	}
	if got := c.ShardCount("x"); got != 2 {
		t.Errorf("ShardCount = %d, want 2", got)
	}
	if _, ok := c.Get("x"); ok {
		t.Error("sharded member visible via Get")
	}
	c.RestoreGeneration(41)
	if c.Generation() != 41 {
		t.Errorf("Generation = %d, want 41", c.Generation())
	}
	// The next mutation continues from the restored point.
	if err := c.Add("y", db); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 42 {
		t.Errorf("Generation after restore+add = %d, want 42", c.Generation())
	}
}
