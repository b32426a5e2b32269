package ncq

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ncq/internal/xmltree"
)

// TestCorpusConcurrentMixed hammers one corpus with mixed traffic —
// Add, Remove, Get, Names, corpus-wide meets and query-language queries
// — to validate the documented guarantee that a Corpus is safe for
// concurrent readers and writers (run with -race to verify). Queries
// must always see a consistent membership snapshot: every answer's
// source must be a name that was registered at some point.
func TestCorpusConcurrentMixed(t *testing.T) {
	base, err := fromDocument(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	other, err := OpenString(otherMarkup)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCorpus()
	if err := c.Add("seed", base); err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("doc-%d", g)
			for i := 0; i < iters; i++ {
				switch (g + i) % 5 {
				case 0: // writer: add / replace
					db := base
					if g%2 == 0 {
						db = other
					}
					if err := c.Add(name, db); err != nil {
						errs <- fmt.Errorf("Add: %v", err)
						return
					}
				case 1: // writer: remove
					c.Remove(name)
				case 2: // reader: corpus meet
					res, err := c.Run(context.Background(), Request{Terms: []string{"Bit", "1999"}, Options: ExcludeRoot()})
					if err != nil {
						errs <- fmt.Errorf("Run: %v", err)
						return
					}
					for _, m := range res.Meets {
						if m.Source == "" {
							errs <- fmt.Errorf("meet with empty source")
							return
						}
					}
				case 3: // reader: corpus query
					if _, err := c.Run(context.Background(), Request{Query: `SELECT tag(e) FROM //year AS e`}); err != nil {
						errs <- fmt.Errorf("Query: %v", err)
						return
					}
				case 4: // reader: metadata
					if _, ok := c.Get("seed"); !ok {
						errs <- fmt.Errorf("seed disappeared")
						return
					}
					if c.Len() != len(c.Names()) {
						// Len and Names each take the lock; both are
						// point-in-time reads so they may legitimately
						// disagree under churn — just exercise them.
						_ = c.Generation()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// After the dust settles "seed" must still be resolvable and the
	// generation must reflect that mutations happened.
	if c.Generation() == 0 {
		t.Error("generation never advanced")
	}
	if _, ok := c.Get("seed"); !ok {
		t.Error("seed lost")
	}
}

// TestConcurrentReads hammers one loaded database from many goroutines
// exercising every read path — full-text, meets, queries, navigation,
// reassembly — to validate the documented guarantee that a loaded
// Database is safe for concurrent readers (run with -race to verify).
func TestConcurrentReads(t *testing.T) {
	db, err := fromDocument(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	th := NewThesaurus().Add("ben", "Ben")
	const goroutines = 16
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 6 {
				case 0:
					if meets, _, err := locateMeet(db, nil, "Bit", "1999"); err != nil || len(meets) != 1 {
						errs <- fmt.Errorf("Locate+MeetOf: %v (%d meets)", err, len(meets))
						return
					}
				case 1:
					if sets, err := db.Locate(context.Background(), th, "ben"); err != nil || len(sets[0]) != 1 {
						errs <- fmt.Errorf("Locate: %v, %v", sets, err)
						return
					}
				case 2:
					ans, err := db.Query(`SELECT tag(e) FROM //year AS e`)
					if err != nil || len(ans.Rows) != 2 {
						errs <- fmt.Errorf("Query: %v", err)
						return
					}
				case 3:
					if _, err := db.Subtree(3); err != nil {
						errs <- fmt.Errorf("Subtree: %v", err)
						return
					}
				case 4:
					if m, err := db.Meet2(6, 8); err != nil || m.Node != 4 {
						errs <- fmt.Errorf("Meet2: %v", err)
						return
					}
				case 5:
					if kids := db.Children(3); len(kids) != 3 {
						errs <- fmt.Errorf("Children: %v", kids)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestThesaurusFrozenOnInstall: SetThesaurus installs a copy, so Adds
// to the caller's thesaurus afterwards neither race with the expand
// requests reading the installed one (run with -race) nor change what
// the corpus answers under an unchanged generation, which would leave
// its cursors valid across a changed answer set.
func TestThesaurusFrozenOnInstall(t *testing.T) {
	db, err := fromDocument(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCorpus()
	if err := c.Add("fig1", db); err != nil {
		t.Fatal(err)
	}
	th := NewThesaurus().Add("robert", "Bob")
	c.SetThesaurus(th)
	gen := c.Generation()
	ctx := context.Background()
	req := Request{Terms: []string{"robert", "1999"}, Options: ExcludeRoot(), Vague: &Vague{Expand: true}}
	want, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Meets) != 1 || want.Meets[0].Tag != "article" {
		t.Fatalf("control answered %+v", want.Meets)
	}
	check := func(when string) {
		got, err := c.Run(ctx, req)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(got.Meets, want.Meets) {
			t.Errorf("%s: the installed thesaurus answered %+v, %+v at install", when, got.Meets, want.Meets)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			th.Add("robert", fmt.Sprintf("syn%d", i))
		}
		// "Ben" would add a second article's author to robert's set.
		th.Add("robert", "Ben")
	}()
	for i := 0; i < 50; i++ {
		check("during Adds")
	}
	wg.Wait()
	check("after Adds")
	if c.Generation() != gen {
		t.Errorf("generation moved from %d to %d without a SetThesaurus", gen, c.Generation())
	}
}
