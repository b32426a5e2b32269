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
	"time"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/datagen"
	"ncq/internal/experiments"
)

func main() {
	cfg := datagen.DefaultMultimediaConfig()
	cfg.Items = 800 // keep the example snappy
	// Figure 6 searches whole tokens, as the original's full-text engine
	// did; that index lives beside the store the experiments load.
	setup, err := experiments.LoadMultimedia(cfg)
	if err != nil {
		log.Fatal(err)
	}
	store, index := setup.Store, setup.Index
	fmt.Printf("multimedia document: %d nodes, %d index terms\n\n", store.Len(), index.Terms())

	// The full-text baseline (averaged): what the user pays regardless.
	const ftIters = 200
	start := time.Now()
	var hits int
	for i := 0; i < ftIters; i++ {
		hits = len(index.Search("landscape"))
	}
	ftUS := float64(time.Since(start).Microseconds()) / ftIters
	fmt.Printf("full-text search ('landscape', %d hits): %.1f us\n\n", hits, ftUS)

	fmt.Printf("%-10s %-14s %-16s %s\n", "distance", "meet_ns", "fulltext+meet", "concept found")
	for d := 0; d <= 20; d += 2 {
		termA, termB := datagen.ProbeTerms(d)
		a := index.Search(termA)
		b := index.Search(termB)
		if len(a) != 1 || len(b) != 1 {
			log.Fatalf("probe %d: unexpected hits %d/%d", d, len(a), len(b))
		}
		const iters = 5000
		start := time.Now()
		var m bat.OID
		var dist int
		for i := 0; i < iters; i++ {
			m, dist, err = core.Meet2(store, a[0].Owner, b[0].Owner)
			if err != nil {
				log.Fatal(err)
			}
		}
		meetNS := float64(time.Since(start).Nanoseconds()) / iters
		fmt.Printf("%-10d %-14.0f %-16.1f <%s> (distance %d)\n",
			d, meetNS, ftUS+meetNS/1e3, store.Label(m), dist)
	}
	fmt.Println("\nThe meet costs nanoseconds next to the microsecond full-text search")
	fmt.Println("and grows linearly with distance — Figure 6's two claims.")
}
