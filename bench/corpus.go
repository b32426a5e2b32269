package main

import (
	"bytes"
	"fmt"
	"strconv"

	"ncq/internal/datagen"
	"ncq/internal/xmltree"
)

// scale sizes a run. fullScale is what BENCHMARK.json measures; toyScale
// is the smoke test's.
type scale struct {
	bibDocs    int // DBLP documents bib00..bibNN
	pubs       int // datagen.DBLPConfig.PubsPerVenueYear
	mediaItems int // datagen.MultimediaConfig.Items
	setups     int // set-ups per run; setup_s is their median
	minRounds  int // timed rounds are never fewer than this
	reingest   int // re-ingest passes over the plain documents (read-only workloads)
	ops        map[string]int
}

// Operations per round, sized once on the reference box so a round
// takes about 1.5 s (see README.md, "Run shape"). They are constants
// of the benchmark: a round is never sized from elapsed time.
var fullScale = scale{
	bibDocs: 8, pubs: 40, mediaItems: 4000, setups: 3, minRounds: 5, reingest: 6,
	ops: map[string]int{
		topkCold:       300,
		streamFull:     64,
		clusterScatter: 120,
		churnRW:        3, // cycles of 1 PUT + 250 reads
	},
}

var toyScale = scale{
	bibDocs: 3, pubs: 2, mediaItems: 40, setups: 1, minRounds: 2, reingest: 1,
	ops: map[string]int{topkCold: 20, streamFull: 8, clusterScatter: 10, churnRW: 1},
}

// mediaShards is the ?shards= of the multimedia upload.
const mediaShards = 4

// document is one upload: the bytes PUT to the server and parsed by
// the oracle.
type document struct {
	name   string
	shards int // 0 = unsharded
	xml    []byte
}

// corpus is everything a run uploads, a pure function of the seed.
type corpus struct {
	docs []document
	// churnAlt is a second generation of docs[0] (same size, another
	// seed); churn_rw alternates bib00 between the two.
	churnAlt document
}

// target is the document's upload path.
func (d document) target() string {
	if d.shards > 1 {
		return "/v1/docs/" + d.name + "?shards=" + strconv.Itoa(d.shards)
	}
	return "/v1/docs/" + d.name
}

func xmlOf(d *xmltree.Document) []byte {
	var buf bytes.Buffer
	if err := d.WriteXML(&buf, false); err != nil {
		panic(fmt.Sprintf("bench: serialise generated document: %v", err)) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

func bibDoc(name string, seed int64, pubs int) document {
	d := datagen.DBLP(datagen.DBLPConfig{Seed: seed, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: pubs})
	return document{name: name, xml: xmlOf(d)}
}

// buildCorpus generates the run's documents. Per-document seeds are
// spread so that neighbouring --seed values share no document.
func buildCorpus(seed int64, sc scale) corpus {
	var c corpus
	for i := 0; i < sc.bibDocs; i++ {
		c.docs = append(c.docs, bibDoc(fmt.Sprintf("bib%02d", i), seed*1009+int64(i)+1, sc.pubs))
	}
	m := datagen.Multimedia(datagen.MultimediaConfig{Seed: seed*1009 + 500, Items: sc.mediaItems, MaxProbeDistance: 20})
	c.docs = append(c.docs, document{name: "media", shards: mediaShards, xml: xmlOf(m)})
	c.churnAlt = bibDoc("bib00", seed*1009+700, sc.pubs)
	return c
}
