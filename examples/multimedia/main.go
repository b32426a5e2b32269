// Multimedia: the paper's Figure 6 experiment in miniature.
//
// The original measured a 200 MB file of multimedia item descriptions
// produced by CWI's feature detectors; the full-text search dominated
// at ~1207 ms while the meet took ~2 ms and grew linearly with the
// distance between the objects. This example generates a synthetic
// descriptions document with marker pairs planted at known distances
// and shows the same two series.
//
// Run with: go run ./examples/multimedia
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"ncq"
	"ncq/internal/datagen"
)

func main() {
	cfg := datagen.DefaultMultimediaConfig()
	cfg.Items = 800 // keep the example snappy
	var xml strings.Builder
	if err := datagen.Multimedia(cfg).WriteXML(&xml, false); err != nil {
		log.Fatal(err)
	}
	db, err := ncq.OpenString(xml.String())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multimedia document: %d nodes, %d index terms\n\n", db.Len(), db.Terms())

	// The full-text baseline (averaged): what the user pays regardless.
	const ftIters = 200
	start := time.Now()
	var hits int
	for i := 0; i < ftIters; i++ {
		hits = len(db.Search("landscape"))
	}
	ftUS := float64(time.Since(start).Microseconds()) / ftIters
	fmt.Printf("full-text search ('landscape', %d hits): %.1f us\n\n", hits, ftUS)

	fmt.Printf("%-10s %-14s %-16s %s\n", "distance", "meet_ns", "fulltext+meet", "concept found")
	for d := 0; d <= 20; d += 2 {
		termA, termB := datagen.ProbeTerms(d)
		a := db.Search(termA)
		b := db.Search(termB)
		if len(a) != 1 || len(b) != 1 {
			log.Fatalf("probe %d: unexpected hits %d/%d", d, len(a), len(b))
		}
		const iters = 5000
		start := time.Now()
		var m ncq.Meet
		for i := 0; i < iters; i++ {
			m, err = db.Meet2(a[0].Node, b[0].Node)
			if err != nil {
				log.Fatal(err)
			}
		}
		meetNS := float64(time.Since(start).Nanoseconds()) / iters
		fmt.Printf("%-10d %-14.0f %-16.1f <%s> (distance %d)\n",
			d, meetNS, ftUS+meetNS/1e3, m.Tag, m.Distance)
	}
	fmt.Println("\nThe meet costs nanoseconds next to the microsecond full-text search")
	fmt.Println("and grows linearly with distance — Figure 6's two claims.")
}
