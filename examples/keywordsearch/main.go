// Keywordsearch: keyword search as a special case of the meet.
//
// Section 6 of the paper observes that "by restricting the result
// types, the operator can be used to implement keyword search as a
// special case". This example restricts the result type to
// //inproceedings on a bibliography: the meet of the keyword hits then
// climbs to the enclosing record, which is exactly keyword search over
// publications — without the engine knowing anything about records.
//
// Run with: go run ./examples/keywordsearch
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"ncq"
	"ncq/internal/datagen"
)

func main() {
	cfg := datagen.DefaultDBLPConfig()
	cfg.PubsPerVenueYear = 15
	var xml strings.Builder
	if err := datagen.DBLP(cfg).WriteXML(&xml, false); err != nil {
		log.Fatal(err)
	}
	db, err := ncq.OpenString(xml.String())
	if err != nil {
		log.Fatal(err)
	}

	keywords := []string{"Schmidt", "1999"}
	fmt.Printf("keyword search for %v over %d nodes, restricted to //inproceedings\n\n",
		keywords, db.Stats().Nodes)

	ctx := context.Background()
	sets, err := db.Locate(ctx, nil, keywords...)
	if err != nil {
		log.Fatal(err)
	}
	meets, _, err := db.MeetOf(ctx, ncq.Restrict("//inproceedings"), sets...)
	if err != nil {
		log.Fatal(err)
	}

	// The meet reports a record as soon as two hits fall into it; for
	// classic AND-semantics keyword search, keep the records whose
	// witnesses cover every keyword.
	covered := 0
	for _, m := range meets {
		if coversAll(db, m, keywords) {
			covered++
			title := findChildValue(db, m.Node, "title")
			year := findChildValue(db, m.Node, "year")
			authors := findChildValue(db, m.Node, "author")
			fmt.Printf("  [%d] %s (%s) — %s\n", covered, title, year, authors)
			if covered >= 10 {
				fmt.Println("  …")
				break
			}
		}
	}
	fmt.Printf("\n%d records matched at least two keywords, %d matched all of them\n",
		len(meets), countCovering(db, meets, keywords))
}

// coversAll reports whether the meet's witnesses include a hit for
// every keyword.
func coversAll(db *ncq.Database, m ncq.Meet, keywords []string) bool {
	for _, kw := range keywords {
		found := false
		for _, w := range m.Witnesses {
			if strings.Contains(db.Value(w), kw) {
				found = true
				break
			}
			// Attribute hits bind the element; check its attributes too.
			if v, ok := db.Attr(w, "key"); ok && strings.Contains(v, kw) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func countCovering(db *ncq.Database, meets []ncq.Meet, keywords []string) int {
	n := 0
	for _, m := range meets {
		if coversAll(db, m, keywords) {
			n++
		}
	}
	return n
}

// findChildValue returns the text of the first child with the given
// label (joining multiple authors with commas).
func findChildValue(db *ncq.Database, rec ncq.NodeID, label string) string {
	var vals []string
	for _, c := range db.Children(rec) {
		if db.Tag(c) == label {
			vals = append(vals, db.Value(c))
		}
	}
	if len(vals) == 0 {
		return "?"
	}
	return strings.Join(vals, ", ")
}
