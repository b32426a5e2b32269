package experiments

import (
	"context"
	"reflect"
	"testing"

	"ncq/internal/datagen"
)

func smallSetups(t *testing.T) (mm, bib *Setup) {
	t.Helper()
	var err error
	mm, err = LoadMultimedia(datagen.MultimediaConfig{Seed: 2, Items: 100, MaxProbeDistance: 12})
	if err != nil {
		t.Fatal(err)
	}
	bib, err = LoadDBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1984, YearTo: 1999, PubsPerVenueYear: 4})
	if err != nil {
		t.Fatal(err)
	}
	return mm, bib
}

func TestFig6Shape(t *testing.T) {
	mm, _ := smallSetups(t)
	rows, err := Fig6(mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d, want 13 (distances 0..12)", len(rows))
	}
	for i, r := range rows {
		if r.Distance != i {
			t.Errorf("row %d distance = %d", i, r.Distance)
		}
		if r.CombinedMS < r.FulltextMS {
			t.Errorf("distance %d: combined %.4f < fulltext %.4f", r.Distance, r.CombinedMS, r.FulltextMS)
		}
		if r.MeetPerOpNS < 0 {
			t.Errorf("distance %d: negative meet time", r.Distance)
		}
	}
	// The headline claim: the meet is negligible next to the full-text
	// search. Allow generous slack — this is a shape, not a number.
	last := rows[len(rows)-1]
	if last.MeetUS*1000 > 50*last.FulltextMS*1e6 {
		t.Errorf("meet (%f us) not small next to fulltext (%f ms)", last.MeetUS, last.FulltextMS)
	}
}

func TestFig7Shape(t *testing.T) {
	_, bib := smallSetups(t)
	rows, err := Fig7(context.Background(), bib, 1999, 1984)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	// Output cardinality grows monotonically as the interval widens;
	// the 1985 step contributes zero ICDE publications.
	for i := 1; i < len(rows); i++ {
		if rows[i].Output < rows[i-1].Output {
			t.Errorf("output shrank when widening: %d -> %d at yearLow %d",
				rows[i-1].Output, rows[i].Output, rows[i].YearLow)
		}
	}
	// At yearLow = 1999: exactly the 4 ICDE-1999 records, no FPs.
	if rows[0].Output != 4 || rows[0].FalsePositives != 0 {
		t.Errorf("1999 row = %+v, want 4 true results", rows[0])
	}
	// The full interval: 15 ICDE years × 4 records + 2 false positives.
	lastRow := rows[len(rows)-1]
	wantTrue := 15 * 4
	if lastRow.Output != wantTrue+lastRow.FalsePositives {
		t.Errorf("full-interval output = %d with %d FPs, want %d true results",
			lastRow.Output, lastRow.FalsePositives, wantTrue)
	}
	// The planted false positives appear once their year enters the
	// interval and disappear again once the hosting record's own year
	// enters (the record then is a true hit):
	//   1996-FP hosted on ICDE-1987, 1993-FP hosted on ICDE-1989.
	wantFPs := map[int]int{
		1997: 0, // neither planted year in range
		1996: 1, // 1996 in range, host 1987 not
		1993: 2, // both planted years in range, neither host
		1990: 2,
		1989: 1, // 1989 host now in range: its record is a true hit
		1987: 0, // both hosts in range
		1984: 0,
	}
	for _, r := range rows {
		if want, ok := wantFPs[r.YearLow]; ok && r.FalsePositives != want {
			t.Errorf("yearLow %d: FPs = %d, want %d", r.YearLow, r.FalsePositives, want)
		}
	}
}

func TestFig7The1985Step(t *testing.T) {
	_, bib := smallSetups(t)
	rows, err := Fig7(context.Background(), bib, 1999, 1984)
	if err != nil {
		t.Fatal(err)
	}
	byLow := map[int]Fig7Row{}
	for _, r := range rows {
		byLow[r.YearLow] = r
	}
	// Widening 1986->1985 adds no ICDE publications ("note that there
	// was no ICDE in 1985, hence the small step").
	d1985 := byLow[1985].Output - byLow[1986].Output
	d1986 := byLow[1986].Output - byLow[1987].Output
	if d1985 != 0 {
		t.Errorf("1985 step adds %d results, want 0", d1985)
	}
	if d1986 <= 0 {
		t.Errorf("1986 step adds %d results, want > 0", d1986)
	}
}

func TestInputScalingShape(t *testing.T) {
	_, bib := smallSetups(t)
	rows, err := InputScaling(context.Background(), bib, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Inputs < rows[i-1].Inputs {
			t.Errorf("inputs not growing: %+v", rows)
		}
	}
	if rows[len(rows)-1].Output == 0 {
		t.Error("full input produced no meets")
	}
}

func TestAblationParent(t *testing.T) {
	_, bib := smallSetups(t)
	rows, err := AblationParent(bib, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if !r.CheckedOK {
			t.Errorf("%s: strategies disagree", r.Name)
		}
		if r.PerOpNS <= 0 {
			t.Errorf("%s: no time measured", r.Name)
		}
	}
}

func TestExplosion(t *testing.T) {
	_, bib := smallSetups(t)
	row, err := Explosion(bib, 1995)
	if err != nil {
		t.Fatal(err)
	}
	if row.BaselinePairs != row.Inputs1*row.Inputs2 {
		t.Errorf("pairs = %d, want %d", row.BaselinePairs, row.Inputs1*row.Inputs2)
	}
	if row.BaselineResults < row.MinimalResults {
		t.Errorf("baseline results %d < minimal %d", row.BaselineResults, row.MinimalResults)
	}
	if row.MinimalResults == 0 {
		t.Error("minimal meet found nothing")
	}
}

func TestFig6RejectsBrokenProbes(t *testing.T) {
	// A document without probes must fail loudly, not return garbage.
	bibOnly, err := LoadDBLP(datagen.DBLPConfig{Seed: 1, YearFrom: 1999, YearTo: 1999, PubsPerVenueYear: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig6(bibOnly, 1)
	if err != nil {
		t.Fatalf("Fig6 on probe-less doc: %v", err)
	}
	// No probes at all -> only distance 0 is absent too; expect zero rows.
	if len(rows) != 0 {
		t.Errorf("rows = %+v, want none", rows)
	}
}

// TestExperimentCountsPinned holds the non-timing columns of the
// Figure 7, scaling, ablation and explosion series — what ncqbench
// prints at -pubs 2 and at its default 75 — to the values recorded
// before the roll-up had one entry and the Figure-4 family moved into
// this package. At the default scale only the 1999 explosion point
// runs: the all-pairs baseline of the wider intervals costs seconds.
func TestExperimentCountsPinned(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		pubs      int
		fig7      [][4]int // year_low, input_size, output, false positives
		scaling   [][2]int // input_size, output
		explosion [][6]int // year_low, |O1|, |O2|, minimal, baseline results, baseline pairs
	}{
		{
			pubs: 2,
			fig7: [][4]int{{1999, 40, 2, 0}, {1998, 50, 4, 0}, {1997, 60, 6, 0}, {1996, 71, 9, 1},
				{1995, 81, 11, 1}, {1994, 91, 13, 1}, {1993, 102, 16, 2}, {1992, 112, 18, 2},
				{1991, 122, 20, 2}, {1990, 132, 22, 2}, {1989, 142, 23, 1}, {1988, 152, 25, 1},
				{1987, 162, 26, 0}, {1986, 172, 28, 0}, {1985, 180, 28, 0}, {1984, 190, 30, 0}},
			scaling: [][2]int{{46, 2}, {62, 6}, {78, 8}, {94, 12}, {110, 16},
				{126, 18}, {142, 22}, {158, 24}, {174, 28}, {190, 30}},
			explosion: [][6]int{{1999, 30, 10, 3, 3, 300}, {1997, 30, 30, 7, 7, 900}, {1995, 30, 50, 11, 11, 1500}},
		},
		{
			pubs: 75,
			fig7: [][4]int{{1999, 1500, 75, 0}, {1998, 1875, 150, 0}, {1997, 2250, 225, 0}, {1996, 2626, 301, 1},
				{1995, 3001, 376, 1}, {1994, 3376, 451, 1}, {1993, 3752, 527, 2}, {1992, 4127, 602, 2},
				{1991, 4502, 677, 2}, {1990, 4877, 752, 2}, {1989, 5252, 826, 1}, {1988, 5627, 901, 1},
				{1987, 6002, 975, 0}, {1986, 6377, 1050, 0}, {1985, 6677, 1050, 0}, {1984, 7052, 1125, 0}},
			scaling: [][2]int{{1717, 75}, {2310, 225}, {2903, 300}, {3495, 450}, {4088, 563},
				{4681, 675}, {5273, 825}, {5866, 900}, {6459, 1050}, {7052, 1125}},
			explosion: [][6]int{{1999, 1125, 375, 76, 76, 421875}},
		},
	} {
		cfg := datagen.DefaultDBLPConfig()
		cfg.PubsPerVenueYear = c.pubs
		setup, err := LoadDBLP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fig7, err := Fig7(ctx, setup, 1999, 1984)
		if err != nil {
			t.Fatal(err)
		}
		var gotFig7 [][4]int
		for _, r := range fig7 {
			gotFig7 = append(gotFig7, [4]int{r.YearLow, r.InputSize, r.Output, r.FalsePositives})
		}
		if !reflect.DeepEqual(gotFig7, c.fig7) {
			t.Errorf("pubs %d: Fig7 = %v\nwant %v", c.pubs, gotFig7, c.fig7)
		}
		scaling, err := InputScaling(ctx, setup, 10)
		if err != nil {
			t.Fatal(err)
		}
		var gotScaling [][2]int
		for _, r := range scaling {
			gotScaling = append(gotScaling, [2]int{r.Inputs, r.Output})
		}
		if !reflect.DeepEqual(gotScaling, c.scaling) {
			t.Errorf("pubs %d: InputScaling = %v\nwant %v", c.pubs, gotScaling, c.scaling)
		}
		ablation, err := AblationParent(setup, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ablation {
			if !r.CheckedOK {
				t.Errorf("pubs %d: ablation %s: strategies disagree", c.pubs, r.Name)
			}
		}
		for _, want := range c.explosion {
			r, err := Explosion(setup, want[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := [6]int{want[0], r.Inputs1, r.Inputs2, r.MinimalResults, r.BaselineResults, r.BaselinePairs}; got != want {
				t.Errorf("pubs %d: Explosion = %v, want %v", c.pubs, got, want)
			}
		}
	}
}
