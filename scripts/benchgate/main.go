// Command benchgate compares two `go test -bench` outputs (a baseline
// and a head run, each typically produced with -count N) and exits
// non-zero when a gated benchmark's median regressed by more than the
// threshold in any tracked metric: ns/op always, and — when the runs
// were produced with -benchmem — B/op and allocs/op as well, so an
// allocation regression on the serving path fails the build even when
// wall-clock noise hides it. CI runs it after benchstat: benchstat
// renders the human table, benchgate is the machine-checkable gate,
// with no dependency outside the standard library.
//
// Usage:
//
//	benchgate [-threshold 20] [-gate name,name,...] base.txt head.txt
//	benchgate trend [-decl BENCHMARK.json] BENCH_*.json
//
// A gate entry is a benchmark's base name: the name up to its first
// '/' with the trailing -GOMAXPROCS suffix stripped, compared exactly.
// "BenchmarkServerQuery" gates BenchmarkServerQuery/cold-4 and
// BenchmarkServerQuery/cached-4 alike, but not
// BenchmarkServerQueryExtra. Benchmarks present in only one file are
// reported but never gate; a metric present in only one run never
// gates either.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// units are the tracked metrics, in report order.
var units = []string{"ns/op", "B/op", "allocs/op"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	if len(argv) > 0 && argv[0] == "trend" {
		return runTrend(argv[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 20, "maximum allowed regression in percent (per metric)")
	gate := fs.String("gate", "", "comma-separated benchmark base names to gate, sub-benchmarks included (empty = all)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchgate [-threshold PCT] [-gate P1,P2] base.txt head.txt\n       benchgate trend [-decl BENCHMARK.json] BENCH_*.json")
		return 2
	}
	base, err := parseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	head, err := parseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	report, failed := compare(base, head, *threshold, gatePrefixes(*gate))
	fmt.Fprint(stdout, report)
	if failed {
		return 1
	}
	return 0
}

func gatePrefixes(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// samples holds one benchmark's measurements per tracked unit.
type samples map[string][]float64

// parseFile extracts the tracked metrics per benchmark name from go
// test -bench output.
func parseFile(path string) (map[string]samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]samples)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, vals, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		s := out[name]
		if s == nil {
			s = make(samples)
			out[name] = s
		}
		for unit, v := range vals {
			s[unit] = append(s[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return out, nil
}

// parseLine reads one "BenchmarkName-P  N  123.4 ns/op  56 B/op ..."
// line, returning every tracked metric present. A line counts only
// when it carries ns/op (every go test bench line does).
func parseLine(line string) (name string, vals map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	for i := 2; i+1 < len(fields); i += 2 {
		unit := fields[i+1]
		if !tracked(unit) {
			continue
		}
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		if vals == nil {
			vals = make(map[string]float64, len(units))
		}
		vals[unit] = v
	}
	if _, hasNS := vals["ns/op"]; !hasNS {
		return "", nil, false
	}
	return fields[0], vals, true
}

func tracked(unit string) bool {
	for _, u := range units {
		if u == unit {
			return true
		}
	}
	return false
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gated reports whether the benchmark's base name — sub-benchmark path
// and -GOMAXPROCS suffix stripped — exactly matches one of the gate
// entries (an empty list gates everything).
func gated(name string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	bare := name
	if i := strings.IndexByte(bare, '/'); i >= 0 {
		bare = bare[:i]
	}
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndexByte(bare, '-'); i >= 0 {
		if _, err := strconv.Atoi(bare[i+1:]); err == nil {
			bare = bare[:i]
		}
	}
	for _, p := range prefixes {
		if bare == p {
			return true
		}
	}
	return false
}

// compare renders a delta table per tracked metric and reports whether
// any gated benchmark regressed beyond threshold percent in any of
// them.
func compare(base, head map[string]samples, threshold float64, prefixes []string) (string, bool) {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	failed := false
	for _, n := range names {
		hs, ok := head[n]
		if !ok {
			fmt.Fprintf(&b, "%-60s missing from head run\n", n)
			continue
		}
		for _, unit := range units {
			bxs, hxs := base[n][unit], hs[unit]
			if len(bxs) == 0 || len(hxs) == 0 {
				continue // metric absent from one run: report nothing, gate nothing
			}
			bm, hm := median(bxs), median(hxs)
			var delta float64
			switch {
			case bm != 0:
				delta = 100 * (hm - bm) / bm
			case hm != 0:
				// From zero to anything: an unbounded regression, so
				// no finite threshold can wave it through.
				delta = math.Inf(1)
			}
			mark := " "
			if gated(n, prefixes) {
				mark = "·"
				if delta > threshold {
					mark = "✗"
					failed = true
				}
			}
			fmt.Fprintf(&b, "%s %-58s %12.0f -> %12.0f %-9s %+6.1f%%\n", mark, n, bm, hm, unit, delta)
		}
	}
	for n := range head {
		if _, ok := base[n]; !ok {
			fmt.Fprintf(&b, "  %-58s new in head run\n", n)
		}
	}
	if failed {
		fmt.Fprintf(&b, "FAIL: gated benchmark regressed more than %.0f%%\n", threshold)
	} else {
		fmt.Fprintf(&b, "ok: no gated benchmark regressed more than %.0f%%\n", threshold)
	}
	return b.String(), failed
}
