// Bibliography: the paper's DBLP case study (Section 5, Figure 7).
//
// "We now want to list all publications in the ICDE proceedings of a
// certain year. To achieve this, we do a full-text search for the
// strings 'ICDE' and the year and calculate the meets of the results
// … with the document root excluded from the set of possible results."
//
// The program generates a synthetic DBLP-style bibliography (ICDE
// skipped 1985, like the real conference), runs the query for a single
// year and then sweeps the interval 1999 back to 1990, printing the
// growth of the answer set.
//
// Run with: go run ./examples/bibliography
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"ncq"
	"ncq/internal/datagen"
)

func main() {
	cfg := datagen.DefaultDBLPConfig()
	cfg.PubsPerVenueYear = 20 // keep the example snappy
	var xml strings.Builder
	if err := datagen.DBLP(cfg).WriteXML(&xml, false); err != nil {
		log.Fatal(err)
	}
	db, err := ncq.OpenString(xml.String())
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("bibliography: %d nodes, %d paths, %d associations\n\n",
		st.Nodes, st.Paths, st.Associations)

	// One year, with a peek at the first results.
	ctx := context.Background()
	meets, err := meetTerms(ctx, db, "ICDE", "1999")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ICDE 1999: %d publications found\n", len(meets))
	for _, m := range meets[:min(3, len(meets))] {
		xmlStr, err := db.Subtree(m.Node)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", truncate(xmlStr, 110))
	}

	// The Figure 7 sweep: widen the interval year by year.
	fmt.Printf("\n%-12s %-10s %-10s %s\n", "interval", "results", "meet_ms", "note")
	for low := 1999; low >= 1990; low-- {
		terms := []string{"ICDE"}
		for y := low; y <= 1999; y++ {
			terms = append(terms, fmt.Sprintf("%d", y))
		}
		start := time.Now()
		meets, err := meetTerms(ctx, db, terms...)
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if low == 1985 || low == 1990 {
			note = "" // annotated below
		}
		if low == 1990 {
			note = "(two false positives from page-number matches)"
		}
		fmt.Printf("%d-1999    %-10d %-10.2f %s\n",
			low, len(meets), float64(time.Since(start).Microseconds())/1000, note)
	}
	fmt.Println("\nNote: there was no ICDE in 1985, so widening 1986->1985 adds nothing —")
	fmt.Println("the small step the paper points out in Figure 7.")
}

// meetTerms is the paper's interaction on one document: a full-text
// search per term, then the meet of the hits, in document order.
func meetTerms(ctx context.Context, db *ncq.Database, terms ...string) ([]ncq.Meet, error) {
	sets, err := db.Locate(ctx, nil, terms...)
	if err != nil {
		return nil, err
	}
	meets, _, err := db.MeetOf(ctx, ncq.ExcludeRoot(), sets...)
	return meets, err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
