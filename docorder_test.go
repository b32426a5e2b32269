package ncq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ncq/internal/xmltree"
)

// docOrder is what the document-order meets promise of a ranked
// answer: the same meets stably sorted by node, a rolled-up meet before
// the self-meet on the same node.
func docOrder(ranked []CorpusMeet) []Meet {
	out := make([]Meet, len(ranked))
	for i, m := range ranked {
		out[i] = m.Meet
	}
	self := func(m Meet) int {
		if len(m.Witnesses) == 1 && m.Witnesses[0] == m.Node {
			return 1
		}
		return 0
	}
	slices.SortStableFunc(out, func(a, b Meet) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return self(a) - self(b)
	})
	return out
}

// TestDocOrderMeetsEqualRun holds the document-order door — Locate,
// then MeetOf, which does not go through Run — to Run's answer
// re-sorted: the same meets and the same unmatched inputs, on Figure 1
// and on random documents, under a spread of options. Three legs: the
// located terms; one term's matches as a single node set, which Run
// meets as a one-term request; and the terms located through the
// thesaurus, compared with a corpus that holds it and runs the request
// with Vague{Expand: true}.
func TestDocOrderMeetsEqualRun(t *testing.T) {
	ctx := context.Background()
	th := NewThesaurus().Add("t0", "t1").Add("v2", "t5", "bit")
	options := []func() *Options{
		func() *Options { return nil },
		ExcludeRoot,
		func() *Options { return Within(3) },
		func() *Options { return Restrict("//a").Restrict("//b") },
		func() *Options { return ExcludePattern("//c").Nearest().MaxLift(4) },
	}
	docs := []*xmltree.Document{xmltree.Fig1()}
	r := rand.New(rand.NewSource(29))
	for len(docs) < 40 {
		docs = append(docs, xmltree.Random(r, 90))
	}
	vocab := []string{"t", "v", "1", "t0", "t1", "t3", "t5", "v0", "v2", "Bit", "1999", "Bob", "Byte"}
	checked := 0
	for i, doc := range docs {
		db, err := fromDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCorpus()
		if err := c.Add("d", db); err != nil {
			t.Fatal(err)
		}
		c.SetThesaurus(th)
		for trial := 0; trial < 6; trial++ {
			terms := make([]string, 1+r.Intn(3))
			for k := range terms {
				terms[k] = vocab[r.Intn(len(vocab))]
			}
			opt := options[r.Intn(len(options))]
			name := fmt.Sprintf("doc %d, terms %q, options %+v", i, terms, opt().Spec())

			res, err := db.Run(ctx, Request{Terms: terms, Options: opt()})
			if err != nil {
				t.Fatal(err)
			}
			sets, err := db.Locate(ctx, nil, terms...)
			if err != nil {
				t.Fatal(err)
			}
			plain := make([][]NodeID, len(sets))
			for k, set := range sets {
				plain[k] = slices.Clone(set)
			}
			meets, unmatched, err := db.MeetOf(ctx, opt(), sets...)
			if err != nil {
				t.Fatal(err)
			}
			if want := docOrder(res.Meets); !reflect.DeepEqual(meets, want) || !reflect.DeepEqual(unmatched, res.UnmatchedNodes) {
				t.Fatalf("%s: Locate + MeetOf = %+v %v\nRun sorted   %+v %v", name, meets, unmatched, want, res.UnmatchedNodes)
			}
			checked += len(meets)

			one, err := db.Run(ctx, Request{Terms: terms[:1], Options: opt()})
			if err != nil {
				t.Fatal(err)
			}
			var nodes []NodeID
			for _, h := range db.index.SearchSubstring(terms[0]) {
				nodes = append(nodes, h.Owner)
			}
			meets, unmatched, err = db.MeetOf(ctx, opt(), nodes)
			if err != nil {
				t.Fatal(err)
			}
			if want := docOrder(one.Meets); !reflect.DeepEqual(meets, want) || !reflect.DeepEqual(unmatched, one.UnmatchedNodes) {
				t.Fatalf("%s: MeetOf(%v) = %+v %v\nRun sorted   %+v %v", name, nodes, meets, unmatched, want, one.UnmatchedNodes)
			}

			exp, err := c.Run(ctx, Request{Terms: terms, Options: opt(), Vague: &Vague{Expand: true}})
			if err != nil {
				t.Fatal(err)
			}
			if sets, err = db.Locate(ctx, th, terms...); err != nil {
				t.Fatal(err)
			}
			meets, unmatched, err = db.MeetOf(ctx, opt(), sets...)
			if err != nil {
				t.Fatal(err)
			}
			if want := docOrder(exp.Meets); !reflect.DeepEqual(meets, want) || len(unmatched) != exp.Unmatched {
				t.Fatalf("%s: expanded Locate + MeetOf = %+v %v\ncorpus Run sorted   %+v (%d unmatched)", name, meets, unmatched, want, exp.Unmatched)
			}
			// An expanded set is the sorted union of the plain sets of the
			// term's expansion, and building it wrote into none of the
			// memoized slices a plain Locate answers.
			for k, term := range terms {
				class, err := db.Locate(ctx, nil, th.Expand(term)...)
				if err != nil {
					t.Fatal(err)
				}
				var want []NodeID
				for _, set := range class {
					want = append(want, set...)
				}
				slices.Sort(want)
				if want = slices.Compact(want); !slices.Equal(sets[k], want) {
					t.Fatalf("%s: expanded set of %q = %v, union over %q = %v", name, term, sets[k], th.Expand(term), want)
				}
			}
			again, err := db.Locate(ctx, nil, terms...)
			if err != nil {
				t.Fatal(err)
			}
			for k := range again {
				if !slices.Equal(again[k], plain[k]) {
					t.Fatalf("%s: plain Locate(%q) = %v after expanding, %v before", name, terms[k], again[k], plain[k])
				}
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d meets compared: the draw checks too little", checked)
	}
}

// looksThenCancel is a context that answers its first looks calls to Err
// with nil and every later one with context.Canceled, counting them.
type looksThenCancel struct {
	context.Context
	looks, calls int
}

func (c *looksThenCancel) Err() error {
	if c.calls++; c.calls > c.looks {
		return context.Canceled
	}
	return nil
}

// TestDocOrderDoorTakesCtx holds the document-order door to its ctx: a
// cancelled ctx stops Locate and MeetOf alike, and one cancelled during
// the roll-up stops MeetOf at the pass's 4,096-input poll. The member is
// the size of TestCorpusRunCancelMidFanout's whole corpus, so the
// located inputs are several polls long.
func TestDocOrderDoorTakesCtx(t *testing.T) {
	db, err := fromDocument(bigBib(32 * 200))
	if err != nil {
		t.Fatal(err)
	}
	terms := []string{"Author", "199"}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Locate(cancelled, nil, terms...); !errors.Is(err, context.Canceled) {
		t.Fatalf("Locate under a cancelled ctx = %v, want context.Canceled", err)
	}
	sets, err := db.Locate(context.Background(), nil, terms...)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sets[0]) + len(sets[1]); n < 3*4096 {
		t.Fatalf("%d inputs: too few for the roll-up to poll mid-meet", n)
	}
	if _, _, err := db.MeetOf(cancelled, nil, sets...); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeetOf under a cancelled ctx = %v, want context.Canceled", err)
	}
	// The look before the pass sees a live ctx; the poll at input 4,096
	// sees it cancelled.
	mid := &looksThenCancel{Context: context.Background(), looks: 1}
	if _, _, err := db.MeetOf(mid, ExcludeRoot(), sets...); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeetOf cancelled mid-meet = %v, want context.Canceled", err)
	}
	if mid.calls != 2 {
		t.Errorf("MeetOf looked at its ctx %d times, want 2: before the pass, then at input 4,096", mid.calls)
	}
	if _, _, err := db.MeetOf(context.Background(), ExcludeRoot(), sets...); err != nil {
		t.Fatalf("MeetOf under a live ctx = %v", err)
	}
}
