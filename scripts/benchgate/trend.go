package main

// trend reads the committed serving-benchmark trajectory
// (BENCH_<pr>.json files). Each file holds, per workload, the medians of
// every end-to-end metric over one PR's parent runs and over its change
// runs, measured in one session. Only that in-file pair carries a
// verdict: one file's change and the next file's parent are the same
// commit measured in two sessions, and the box drifts between sessions.
// So trend prints both readings: the in-file ratios with their chained
// product, and each seam between files as an A/A reading held against
// the metric's bound in BENCHMARK.json.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// trajectory is the part of a BENCH_<pr>.json trend reads.
type trajectory struct {
	PR        int `json:"pr"`
	Workloads map[string]struct {
		Parent, Change struct {
			Metrics map[string]struct{ Value float64 }
		}
	}
}

// declaration is the part of BENCHMARK.json trend reads: the workload
// and metric order, and each metric's bound.
type declaration struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name  string
		Bound float64
	} `json:"end_to_end"`
}

func runTrend(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate trend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	declPath := fs.String("decl", "BENCHMARK.json", "the benchmark declaration: workloads, metrics and bounds")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: benchgate trend [-decl BENCHMARK.json] BENCH_*.json")
		return 2
	}
	var decl declaration
	if err := readFileJSON(*declPath, &decl); err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	files := make([]trajectory, fs.NArg())
	for i, path := range fs.Args() {
		if err := readFileJSON(path, &files[i]); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].PR < files[j].PR })
	fmt.Fprint(stdout, trend(files, decl))
	return 0
}

func readFileJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// median is the file's median of metric m on workload w over its
// change runs, or over its parent runs; NaN when the file lacks it.
func (t *trajectory) median(w, m string, change bool) float64 {
	wl, ok := t.Workloads[w]
	if !ok {
		return math.NaN()
	}
	runs := wl.Parent
	if change {
		runs = wl.Change
	}
	if v, ok := runs.Metrics[m]; ok {
		return v.Value
	}
	return math.NaN()
}

// pct renders a ratio as a signed percentage change.
func pct(r float64, digits int) string {
	return fmt.Sprintf("%+.*f%%", digits, 100*(r-1))
}

// trend renders the two tables: per workload and metric, each file's
// change ÷ parent and their chained product; then each seam, the next
// file's parent ÷ this file's change, marked "!" beyond the bound.
func trend(files []trajectory, decl declaration) string {
	var b strings.Builder
	labels := make([]string, len(files))
	for i, f := range files {
		labels[i] = strconv.Itoa(f.PR)
	}
	row := func(w, m string, cells []string, last string) {
		fmt.Fprintf(&b, "%-16s %-16s", w, m)
		for _, c := range cells {
			fmt.Fprintf(&b, " %8s", c)
		}
		fmt.Fprintf(&b, " %8s\n", last)
	}
	fmt.Fprintf(&b, "change ÷ parent per file, chained\n")
	row("workload", "metric", labels, "chain")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			cells := make([]string, len(files))
			chain, seen := 1.0, false
			for i := range files {
				r := files[i].median(w.Name, m.Name, true) / files[i].median(w.Name, m.Name, false)
				if math.IsNaN(r) {
					cells[i] = "n/a"
					continue
				}
				cells[i] = pct(r, 1)
				chain *= r
				seen = true
			}
			if seen {
				row(w.Name, m.Name, cells, pct(chain, 0))
			}
		}
	}
	if len(files) < 2 {
		return b.String()
	}
	seams := make([]string, len(files)-1)
	for i := range seams {
		seams[i] = labels[i] + "|" + labels[i+1]
	}
	fmt.Fprintf(&b, "\nseams, A/A: next file's parent ÷ this file's change, the same commit; ! beyond the bound\n")
	row("workload", "metric", seams, "bound")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			cells := make([]string, len(seams))
			seen := false
			for i := range seams {
				r := files[i+1].median(w.Name, m.Name, false) / files[i].median(w.Name, m.Name, true)
				if math.IsNaN(r) {
					cells[i] = "n/a"
					continue
				}
				cells[i] = pct(r, 1)
				if math.Abs(r-1) > m.Bound {
					cells[i] += "!"
				}
				seen = true
			}
			if seen {
				row(w.Name, m.Name, cells, fmt.Sprintf("±%.0f%%", 100*m.Bound))
			}
		}
	}
	return b.String()
}
