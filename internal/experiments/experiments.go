// Package experiments implements the paper's evaluation section: the
// workload generators, parameter sweeps and measurements that
// regenerate Figure 6 and Figure 7, plus the input-cardinality scaling
// claim and two ablations of design choices. cmd/ncqbench prints the
// series; the root-level benchmarks wrap the same code in testing.B.
// It also holds what only the evaluation runs (figure4.go): the
// set-oriented meet of Figure 4 in its array and BAT-join forms, the
// all-pairs baseline of the Section 1 explosion and the ancestor-set
// baseline of the steering ablation.
//
// Absolute numbers differ from the paper's SGI 1400 (the substrate here
// is an in-process Go store, not the Monet server), but the shapes are
// the evaluation's claims and those are preserved:
//
//   - Figure 6: full-text dominates; the meet costs microseconds and
//     grows linearly with the distance between the objects.
//   - Figure 7: meet-after-full-text time grows linearly with the
//     output cardinality; results are almost exclusively the ICDE
//     publications of the queried years with two known false positives.
package experiments

import (
	"context"
	"fmt"
	"time"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/datagen"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// Setup bundles a loaded document with its index.
type Setup struct {
	Store *monetx.Store
	Index *fulltext.Index
}

// LoadMultimedia generates and loads the multimedia workload.
func LoadMultimedia(cfg datagen.MultimediaConfig) (*Setup, error) {
	return load(datagen.Multimedia(cfg))
}

// LoadDBLP generates and loads the bibliography workload.
func LoadDBLP(cfg datagen.DBLPConfig) (*Setup, error) {
	return load(datagen.DBLP(cfg))
}

// load shreds a generated tree; the tree is not kept.
func load(doc *xmltree.Document) (*Setup, error) {
	store, err := monetx.Load(doc)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Setup{Store: store, Index: fulltext.New(store)}, nil
}

// Fig6Row is one point of Figure 6: elapsed time vs distance.
type Fig6Row struct {
	Distance    int
	FulltextMS  float64 // full-text search only (the flat series)
	MeetUS      float64 // the meet itself, microseconds per operation
	CombinedMS  float64 // "fulltext and meet" series
	MeetPerOpNS float64 // raw per-operation cost
}

// Fig6 reproduces "Combining meet and fulltext search": for every
// distance d in 0..MaxProbeDistance, a full-text search for the two
// probe terms followed by meet_2 of the unique hits. iters controls the
// averaging (the paper normalises the full-text duration for the same
// reason).
func Fig6(setup *Setup, iters int) ([]Fig6Row, error) {
	if iters < 1 {
		iters = 1
	}
	// Discover how many probe pairs the document carries; a document
	// without probes yields an empty series.
	maxD := -1
	for {
		a, _ := datagen.ProbeTerms(maxD + 1)
		if len(setup.Index.Search(a)) == 0 {
			break
		}
		maxD++
	}
	// The full-text baseline: one representative search over the bulk
	// content, averaged.
	ftDur := measure(iters, func() {
		setup.Index.Search("landscape")
	})
	ftMS := float64(ftDur.Nanoseconds()) / 1e6

	var rows []Fig6Row
	for d := 0; d <= maxD; d++ {
		termA, termB := datagen.ProbeTerms(d)
		hitsA := setup.Index.Search(termA)
		hitsB := setup.Index.Search(termB)
		if len(hitsA) != 1 || len(hitsB) != 1 {
			return nil, fmt.Errorf("experiments: Fig6: probe %d has %d/%d hits", d, len(hitsA), len(hitsB))
		}
		o1, o2 := hitsA[0].Owner, hitsB[0].Owner
		meetDur := measure(iters, func() {
			if _, _, err := core.Meet2(setup.Store, o1, o2); err != nil {
				panic(err)
			}
		})
		meetNS := float64(meetDur.Nanoseconds())
		rows = append(rows, Fig6Row{
			Distance:    d,
			FulltextMS:  ftMS,
			MeetUS:      meetNS / 1e3,
			CombinedMS:  ftMS + meetNS/1e6,
			MeetPerOpNS: meetNS,
		})
	}
	return rows, nil
}

// Fig7Row is one point of Figure 7: the meet of the "ICDE" hits with
// the year hits of the interval [YearLow, yearHigh], root excluded.
type Fig7Row struct {
	YearLow        int
	InputSize      int // cardinality of the combined full-text result
	Output         int // cardinality of the meet result (the x-axis)
	FalsePositives int // results that are not ICDE records of the interval
	MeetMS         float64
	FulltextMS     float64 // not part of the paper's plot; reported for context
}

// Fig7 reproduces the DBLP case study: "we do a full-text search for
// the strings 'ICDE' and the year and calculate the meets of the
// results according to algorithm meet_P with the document root excluded
// … we iteratively extend the search interval from 1999 back to 1984".
// The combined hits are one input set, so every meet is a roll-up.
func Fig7(ctx context.Context, setup *Setup, yearHigh, yearLowest int) ([]Fig7Row, error) {
	var rows []Fig7Row
	for low := yearHigh; low >= yearLowest; low-- {
		ftStart := time.Now()
		hits := setup.Index.SearchSubstring("ICDE")
		for y := low; y <= yearHigh; y++ {
			hits = append(hits, setup.Index.SearchSubstring(fmt.Sprintf("%d", y))...)
		}
		inputs := fulltext.Owners(hits)
		ftMS := float64(time.Since(ftStart).Nanoseconds()) / 1e6

		start := time.Now()
		results, _, err := core.MeetMultiContext(ctx, setup.Store, [][]bat.OID{inputs}, core.ExcludeRoot(setup.Store))
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig7: %w", err)
		}
		meetMS := float64(time.Since(start).Nanoseconds()) / 1e6

		fps := 0
		for _, r := range results {
			if !isICDEInRange(setup.Store, r.Meet, low, yearHigh) {
				fps++
			}
		}
		rows = append(rows, Fig7Row{
			YearLow:        low,
			InputSize:      len(inputs),
			Output:         len(results),
			FalsePositives: fps,
			MeetMS:         meetMS,
			FulltextMS:     ftMS,
		})
	}
	return rows, nil
}

// isICDEInRange checks whether the meet node is an ICDE record whose
// publication year lies in [low, high] — the ground truth for the
// false-positive count.
func isICDEInRange(store *monetx.Store, rec bat.OID, low, high int) bool {
	if store.Label(rec) != "inproceedings" {
		return false
	}
	var venue string
	var year int
	for _, c := range store.Children(rec) {
		label := store.Label(c)
		if label != "booktitle" && label != "year" {
			continue
		}
		for _, cc := range store.Children(c) {
			t, ok := store.Text(cc)
			if !ok {
				continue
			}
			if label == "booktitle" {
				venue = t
			} else {
				fmt.Sscanf(t, "%d", &year)
			}
		}
	}
	return venue == "ICDE" && low <= year && year <= high
}

// ScalingRow is one point of the input-cardinality scaling experiment
// (the Section 5 claim that the set-oriented meet "scales well, i.e.,
// linear, with respect to the cardinality of the input sets").
type ScalingRow struct {
	Inputs int
	Output int
	MeetMS float64
}

// InputScaling feeds growing prefixes of all year hits (plus all ICDE
// hits) to the general meet, as one input set.
func InputScaling(ctx context.Context, setup *Setup, steps int) ([]ScalingRow, error) {
	if steps < 1 {
		steps = 1
	}
	var yearHits []fulltext.Hit
	for y := 1984; y <= 1999; y++ {
		yearHits = append(yearHits, setup.Index.SearchSubstring(fmt.Sprintf("%d", y))...)
	}
	icde := setup.Index.SearchSubstring("ICDE")
	var rows []ScalingRow
	for s := 1; s <= steps; s++ {
		n := len(yearHits) * s / steps
		inputs := fulltext.Owners(append(append([]fulltext.Hit(nil), icde...), yearHits[:n]...))
		start := time.Now()
		results, _, err := core.MeetMultiContext(ctx, setup.Store, [][]bat.OID{inputs}, core.ExcludeRoot(setup.Store))
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling: %w", err)
		}
		rows = append(rows, ScalingRow{
			Inputs: len(inputs),
			Output: len(results),
			MeetMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		})
	}
	return rows, nil
}

// AblationRow compares two execution strategies on the same workload.
type AblationRow struct {
	Name      string
	PerOpNS   float64
	CheckedOK bool // both strategies agreed on the result
}

// AblationParent compares the array-based MeetSets against the pure
// BAT-join MeetSetsBAT on a Figure 7-style workload (ICDE booktitle
// hits vs one year's hits).
func AblationParent(setup *Setup, iters int) ([]AblationRow, error) {
	if iters < 1 {
		iters = 1
	}
	icde := homogeneous(setup, setup.Index.SearchSubstring("ICDE"))
	year := homogeneous(setup, setup.Index.SearchSubstring("1999"))
	want, err := MeetSets(setup.Store, icde, year, nil)
	if err != nil {
		return nil, err
	}
	got, err := MeetSetsBAT(setup.Store, icde, year, nil)
	if err != nil {
		return nil, err
	}
	agree := len(want) == len(got)
	if agree {
		for i := range want {
			if want[i].Meet != got[i].Meet {
				agree = false
				break
			}
		}
	}
	arr := measure(iters, func() {
		if _, err := MeetSets(setup.Store, icde, year, nil); err != nil {
			panic(err)
		}
	})
	bats := measure(iters, func() {
		if _, err := MeetSetsBAT(setup.Store, icde, year, nil); err != nil {
			panic(err)
		}
	})
	return []AblationRow{
		{Name: "parent-array", PerOpNS: float64(arr.Nanoseconds()), CheckedOK: agree},
		{Name: "parent-bat-join", PerOpNS: float64(bats.Nanoseconds()), CheckedOK: agree},
	}, nil
}

// ExplosionRow compares the minimal set-oriented meet against the
// naive all-pairs baseline on the same inputs — the "combinatorial
// explosion of the result size" the paper's introduction warns about.
type ExplosionRow struct {
	Inputs1, Inputs2 int
	MinimalResults   int
	MinimalMS        float64
	BaselineResults  int
	BaselinePairs    int
	BaselineMS       float64
}

// Explosion runs both strategies on the ICDE hits versus the year hits
// of [lowYear, 1999].
func Explosion(setup *Setup, lowYear int) (ExplosionRow, error) {
	icde := homogeneous(setup, setup.Index.SearchSubstring("ICDE"))
	var yearHits []fulltext.Hit
	for y := lowYear; y <= 1999; y++ {
		yearHits = append(yearHits, setup.Index.SearchSubstring(fmt.Sprintf("%d", y))...)
	}
	years := homogeneous(setup, yearHits)
	row := ExplosionRow{Inputs1: len(icde), Inputs2: len(years)}

	start := time.Now()
	minimal, err := MeetSets(setup.Store, icde, years, nil)
	if err != nil {
		return row, err
	}
	row.MinimalMS = float64(time.Since(start).Nanoseconds()) / 1e6
	row.MinimalResults = len(minimal)

	start = time.Now()
	baseline, pairs, err := MeetPairsBaseline(setup.Store, icde, years)
	if err != nil {
		return row, err
	}
	row.BaselineMS = float64(time.Since(start).Nanoseconds()) / 1e6
	row.BaselineResults = len(baseline)
	row.BaselinePairs = pairs
	return row, nil
}

// homogeneous keeps the largest single-path group of the hits, so the
// result is a valid MeetSets input.
func homogeneous(setup *Setup, hits []fulltext.Hit) []bat.OID {
	groups := setup.Index.Groups(hits)
	var best []bat.OID
	for _, g := range groups {
		if len(g) > len(best) {
			best = g
		}
	}
	return best
}

// measure runs fn iters times and returns the average duration.
func measure(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}
