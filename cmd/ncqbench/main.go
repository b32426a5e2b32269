// Command ncqbench regenerates the paper's evaluation figures as TSV
// series on stdout.
//
//	ncqbench -experiment fig6      # Figure 6: meet+fulltext vs distance
//	ncqbench -experiment fig7      # Figure 7: meet time vs output cardinality
//	ncqbench -experiment scaling   # Section 5: input-cardinality scaling
//	ncqbench -experiment ablation  # parent-array vs BAT-join execution
//	ncqbench -experiment explosion # minimal meets vs all-pairs baseline
//	ncqbench -experiment all
//
// The absolute times are this machine's; the shapes are the paper's
// claims. The serving benchmark and its numbers are in bench/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"ncq/internal/datagen"
	"ncq/internal/experiments"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// ctx reaches the meets of the fig7 and scaling series.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("experiment", "all", "fig6, fig7, scaling, ablation, explosion or all")
		items = fs.Int("items", 3000, "fig6: multimedia items")
		pubs  = fs.Int("pubs", 75, "fig7: publications per venue and year")
		iters = fs.Int("iters", 50, "averaging iterations for point measurements")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	known := map[string]bool{"all": true, "fig6": true, "fig7": true,
		"scaling": true, "ablation": true, "explosion": true}
	if !known[*exp] {
		fmt.Fprintf(stderr, "ncqbench: unknown experiment %q\n", *exp)
		return 2
	}

	code := 0
	runOne := func(name string, fn func() error) {
		if code != 0 || (*exp != "all" && *exp != name) {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(stderr, "ncqbench: %s: %v\n", name, err)
			code = 1
		}
	}
	runOne("fig6", func() error { return fig6(stdout, *items, *iters) })
	runOne("fig7", func() error { return fig7(ctx, stdout, *pubs) })
	runOne("scaling", func() error { return scaling(ctx, stdout, *pubs) })
	runOne("ablation", func() error { return ablation(stdout, *pubs, *iters) })
	runOne("explosion", func() error { return explosion(stdout, *pubs) })
	return code
}

func fig6(w io.Writer, items, iters int) error {
	cfg := datagen.DefaultMultimediaConfig()
	cfg.Items = items
	setup, err := experiments.LoadMultimedia(cfg)
	if err != nil {
		return err
	}
	st := setup.Store.Stats()
	fmt.Fprintf(w, "# Figure 6 — combining meet and fulltext search (normalized)\n")
	fmt.Fprintf(w, "# multimedia document: %d nodes, %d paths, %d associations\n",
		st.Nodes, st.Paths, st.Associations)
	fmt.Fprintf(w, "# distance\tfulltext_ms\tmeet_us\tfulltext_and_meet_ms\n")
	rows, err := experiments.Fig6(setup, iters)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.4f\t%.3f\t%.4f\n", r.Distance, r.FulltextMS, r.MeetUS, r.CombinedMS)
	}
	return nil
}

func fig7(ctx context.Context, w io.Writer, pubs int) error {
	cfg := datagen.DefaultDBLPConfig()
	cfg.PubsPerVenueYear = pubs
	setup, err := experiments.LoadDBLP(cfg)
	if err != nil {
		return err
	}
	st := setup.Store.Stats()
	fmt.Fprintf(w, "# Figure 7 — DBLP case study: meet after full-text search\n")
	fmt.Fprintf(w, "# bibliography: %d nodes, %d paths, %d associations\n",
		st.Nodes, st.Paths, st.Associations)
	fmt.Fprintf(w, "# year_low\tinput_size\toutput_cardinality\tmeet_ms\tfalse_positives\n")
	rows, err := experiments.Fig7(ctx, setup, 1999, 1984)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%d\n", r.YearLow, r.InputSize, r.Output, r.MeetMS, r.FalsePositives)
	}
	return nil
}

func scaling(ctx context.Context, w io.Writer, pubs int) error {
	cfg := datagen.DefaultDBLPConfig()
	cfg.PubsPerVenueYear = pubs
	setup, err := experiments.LoadDBLP(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Input-cardinality scaling (Section 5: \"scales well, i.e., linear\")\n")
	fmt.Fprintf(w, "# input_size\toutput_cardinality\tmeet_ms\n")
	rows, err := experiments.InputScaling(ctx, setup, 10)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.3f\n", r.Inputs, r.Output, r.MeetMS)
	}
	return nil
}

func ablation(w io.Writer, pubs, iters int) error {
	cfg := datagen.DefaultDBLPConfig()
	cfg.PubsPerVenueYear = pubs
	setup, err := experiments.LoadDBLP(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Ablation — parent navigation: per-OID array vs BAT join\n")
	fmt.Fprintf(w, "# strategy\tper_op_ns\tresults_agree\n")
	rows, err := experiments.AblationParent(setup, iters)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%v\n", r.Name, r.PerOpNS, r.CheckedOK)
	}
	return nil
}

func explosion(w io.Writer, pubs int) error {
	cfg := datagen.DefaultDBLPConfig()
	cfg.PubsPerVenueYear = pubs
	setup, err := experiments.LoadDBLP(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Minimal meets vs all-pairs baseline (the Section 1 explosion)\n")
	fmt.Fprintf(w, "# year_low\t|O1|\t|O2|\tminimal_results\tminimal_ms\tbaseline_results\tbaseline_pairs\tbaseline_ms\n")
	for _, low := range []int{1999, 1997, 1995} {
		row, err := experiments.Explosion(setup, low)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.3f\t%d\t%d\t%.3f\n",
			low, row.Inputs1, row.Inputs2, row.MinimalResults, row.MinimalMS,
			row.BaselineResults, row.BaselinePairs, row.BaselineMS)
	}
	return nil
}
