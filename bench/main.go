// Command bench is the repository's serving benchmark: four closed-loop
// workloads against real ncqd listeners, and a traced in-process run
// that attributes time to layers. See README.md.
//
//	bash bench/run.sh --workload topk_cold --seed 1 --seconds 14 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics, in the shape BENCHMARK.json describes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of the contract; BENCHMARK.json repeats
// these and bench_test.go pins that the two agree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"ttfl_p50_ms", "ms", "lower", 0.25},
	{"put_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newReport(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) *report {
	rep := &report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return rep
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four, one after the other)")
		seed    = fs.Int64("seed", 1, "inputs are a pure function of this")
		seconds = fs.Float64("seconds", 14, "timed rounds run for at least this long")
		trace   = fs.Int("trace", 0, "1 = traced in-process run printing the per-layer metrics")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	status := 0
	for _, n := range names {
		var rep *report
		var err error
		if *trace != 0 {
			rep, err = runTracedFull(ctx, n, *seed)
		} else {
			rep, err = runEndToEnd(ctx, n, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if !rep.Correct || rep.Failed > 0 {
			status = 1
		}
	}
	return status
}

func runEndToEnd(ctx context.Context, name string, seed int64, seconds float64) (*report, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	logDir := filepath.Join(root, buildDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildNcqd(ctx, root)
	if err != nil {
		return nil, err
	}
	res, err := endToEnd(ctx, bootDaemons(bin, logDir), name, seed, seconds, fullScale)
	if err != nil {
		return nil, err
	}
	printEndToEnd(res)
	return newReport(endToEndMetrics, res.metrics, res.attempted, res.failed, res.failed == 0 && res.oracleOK >= 50), nil
}

// printEndToEnd writes the human-readable part: every metric by name
// and unit, the ungated extras, and per-round host diagnostics so a
// disturbed run is recognisable (never filtered).
func printEndToEnd(res *result) {
	fmt.Printf("== %s: %d timed rounds, %d ops, %d failed, %d replies equal to the oracle byte for byte\n",
		res.workload, len(res.rounds), res.attempted, res.failed, res.oracleOK)
	for _, e := range res.errs {
		fmt.Printf("   FAILED %s\n", e)
	}
	fmt.Printf("   %-18s %12s %12s\n", "", "at ref speed", "raw")
	for _, d := range endToEndMetrics {
		fmt.Printf("   %-18s %12.4f %12.4f %s\n", d.name, res.metrics[d.name], res.raw[d.name], d.unit)
	}
	extras := make([]string, 0, len(res.extra))
	for k := range res.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Printf("   %-18s %12.4f (not gated)\n", k, res.extra[k])
	}
	for i, st := range res.rounds {
		fmt.Printf("   round %2d  %6.3f s  ops_per_s %8.2f  p50_ms %7.3f  p95_ms %7.3f  ttfl_p50_ms %7.3f  cpu_ms_per_op %7.3f  host.slowness %6.3f  host.steal_share %.3f  host.loadavg %.2f\n",
			i+1, st.wall.Seconds(), st.opsPerS(), pctMS(st.last, 0.50), pctMS(st.last, 0.95),
			pctMS(st.first, 0.50), st.cpuMSPerOp(), st.slow, st.steal, st.load)
	}
	fmt.Printf("   setup_s samples:")
	for _, t := range res.setups {
		fmt.Printf(" %.3f (slowness %.3f)", t.took.Seconds(), t.slow)
	}
	fmt.Printf("\n   put_p50_ms samples (raw):")
	for _, t := range res.puts {
		fmt.Printf(" %.1f", float64(t.took)/float64(time.Millisecond))
	}
	fmt.Println()
	fmt.Printf("   harness wall: %s\n", strings.Join(res.phases, ", "))
}
