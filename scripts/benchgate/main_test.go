package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		name string
		vals map[string]float64
		ok   bool
	}{
		{
			"BenchmarkServerQuery/cold-4         	     100	   1104213 ns/op",
			"BenchmarkServerQuery/cold-4", map[string]float64{"ns/op": 1104213}, true,
		},
		{
			"BenchmarkSnapshotSave-4   10  9.5 ns/op  120 MB/s", "BenchmarkSnapshotSave-4",
			map[string]float64{"ns/op": 9.5}, true,
		},
		{
			"BenchmarkFig7CaseStudy/yearLow=1999-4  3  2000 ns/op  42 results",
			"BenchmarkFig7CaseStudy/yearLow=1999-4", map[string]float64{"ns/op": 2000}, true,
		},
		{
			"BenchmarkSearch-4  500  2100 ns/op  1024 B/op  1 allocs/op",
			"BenchmarkSearch-4", map[string]float64{"ns/op": 2100, "B/op": 1024, "allocs/op": 1}, true,
		},
		{"PASS", "", nil, false},
		{"ok  	ncq	0.6s", "", nil, false},
		{"goos: linux", "", nil, false},
	}
	for _, c := range cases {
		name, vals, ok := parseLine(c.line)
		if name != c.name || ok != c.ok || len(vals) != len(c.vals) {
			t.Errorf("parseLine(%q) = (%q, %v, %t), want (%q, %v, %t)",
				c.line, name, vals, ok, c.name, c.vals, c.ok)
			continue
		}
		for unit, want := range c.vals {
			if vals[unit] != want {
				t.Errorf("parseLine(%q)[%s] = %v, want %v", c.line, unit, vals[unit], want)
			}
		}
	}
}

func TestGated(t *testing.T) {
	prefixes := []string{"BenchmarkServerQuery", "BenchmarkCorpusMeetParallel"}
	for name, want := range map[string]bool{
		"BenchmarkServerQuery/cold-4":             true,
		"BenchmarkServerQuery-16":                 true,
		"BenchmarkCorpusMeetParallel/workers=1-4": true,
		"BenchmarkBatchQuery/batch/cold-4":        false,
		"BenchmarkServerQueryExtra-4":             false,
	} {
		if got := gated(name, prefixes); got != want {
			t.Errorf("gated(%q) = %t", name, got)
		}
	}
	if !gated("BenchmarkAnything-4", nil) {
		t.Error("empty prefix list must gate everything")
	}
}

func mkSamples(unit string, xs ...float64) samples {
	return samples{unit: xs}
}

func TestCompareGate(t *testing.T) {
	base := map[string]samples{
		"BenchmarkServerQuery/cold-4": mkSamples("ns/op", 100, 110, 105),
		"BenchmarkBatchQuery/cold-4":  mkSamples("ns/op", 100, 100, 100),
		"BenchmarkOnlyInBase-4":       mkSamples("ns/op", 1),
	}
	// Within threshold: +10% on the gated benchmark.
	head := map[string]samples{
		"BenchmarkServerQuery/cold-4": mkSamples("ns/op", 115, 116, 114),
		"BenchmarkBatchQuery/cold-4":  mkSamples("ns/op", 900), // ungated: may regress freely
		"BenchmarkOnlyInHead-4":       mkSamples("ns/op", 1),
	}
	report, failed := compare(base, head, 20, []string{"BenchmarkServerQuery"})
	if failed {
		t.Fatalf("+10%% failed the 20%% gate:\n%s", report)
	}
	if !strings.Contains(report, "missing from head") || !strings.Contains(report, "new in head") {
		t.Errorf("report lacks presence notes:\n%s", report)
	}

	// Beyond threshold fails.
	head["BenchmarkServerQuery/cold-4"] = mkSamples("ns/op", 140, 141, 139)
	report, failed = compare(base, head, 20, []string{"BenchmarkServerQuery"})
	if !failed {
		t.Fatalf("+33%% passed the 20%% gate:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Errorf("failing report lacks FAIL line:\n%s", report)
	}
}

func TestCompareGatesMemoryMetrics(t *testing.T) {
	base := map[string]samples{
		"BenchmarkServerQuery/cold-4": {
			"ns/op": {100, 101}, "B/op": {1000, 1000}, "allocs/op": {50, 50},
		},
	}
	// ns/op steady, allocs/op doubled: the gate must fail.
	head := map[string]samples{
		"BenchmarkServerQuery/cold-4": {
			"ns/op": {100, 100}, "B/op": {1010, 1010}, "allocs/op": {100, 100},
		},
	}
	report, failed := compare(base, head, 20, []string{"BenchmarkServerQuery"})
	if !failed {
		t.Fatalf("allocs/op doubling passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "allocs/op") {
		t.Errorf("report lacks allocs/op line:\n%s", report)
	}

	// A metric present only in the head run (e.g. baseline ran without
	// -benchmem) must not gate.
	base["BenchmarkServerQuery/cold-4"] = samples{"ns/op": {100, 101}}
	if report, failed := compare(base, head, 20, []string{"BenchmarkServerQuery"}); failed {
		t.Fatalf("head-only metric gated:\n%s", report)
	}

	// Zero-to-nonzero on a gated metric counts as a regression.
	base["BenchmarkServerQuery/cold-4"] = samples{"ns/op": {100}, "allocs/op": {0}}
	head["BenchmarkServerQuery/cold-4"] = samples{"ns/op": {100}, "allocs/op": {3}}
	if report, failed := compare(base, head, 20, []string{"BenchmarkServerQuery"}); !failed {
		t.Fatalf("0 -> 3 allocs/op passed the gate:\n%s", report)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.txt", `
goos: linux
BenchmarkServerQuery/cold-4   100  1000 ns/op  2000 B/op  20 allocs/op
BenchmarkServerQuery/cold-4   100  1020 ns/op  2000 B/op  20 allocs/op
BenchmarkOther-4              100  500 ns/op
PASS
`)
	good := write("good.txt", `
BenchmarkServerQuery/cold-4   100  1100 ns/op  2050 B/op  20 allocs/op
BenchmarkServerQuery/cold-4   100  1090 ns/op  2050 B/op  20 allocs/op
BenchmarkOther-4              100  5000 ns/op
`)
	bad := write("bad.txt", `
BenchmarkServerQuery/cold-4   100  2000 ns/op  2000 B/op  20 allocs/op
BenchmarkServerQuery/cold-4   100  2100 ns/op  2000 B/op  20 allocs/op
`)
	badMem := write("badmem.txt", `
BenchmarkServerQuery/cold-4   100  1000 ns/op  9000 B/op  220 allocs/op
BenchmarkServerQuery/cold-4   100  1010 ns/op  9000 B/op  220 allocs/op
`)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	gate := []string{"-gate", "BenchmarkServerQuery", "-threshold", "20"}
	if code := run(append(gate, base, good), devnull, devnull); code != 0 {
		t.Errorf("good head: exit %d", code)
	}
	if code := run(append(gate, base, bad), devnull, devnull); code != 1 {
		t.Errorf("bad head: exit %d", code)
	}
	if code := run(append(gate, base, badMem), devnull, devnull); code != 1 {
		t.Errorf("memory-regressed head: exit %d", code)
	}
	if code := run([]string{base}, devnull, devnull); code != 2 {
		t.Errorf("missing arg: exit %d", code)
	}
	if code := run(append(gate, filepath.Join(dir, "absent.txt"), good), devnull, devnull); code != 2 {
		t.Errorf("absent file: exit %d", code)
	}
}

// TestTrajectoryNames holds every committed BENCH_*.json to the
// benchmark's declaration in BENCHMARK.json: each file records exactly
// the declared workloads, and every metric of a parent or change run
// is a declared end-to-end metric — so renaming a workload or a metric
// fails here, not in a reader's diff.
func TestTrajectoryNames(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "../../BENCHMARK.json", &decl)
	var workloads []string
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	sort.Strings(workloads)
	metrics := map[string]bool{}
	for _, m := range decl.EndToEnd {
		metrics[m.Name] = true
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed BENCH_*.json (%v)", err)
	}
	for _, f := range files {
		var traj struct {
			Workloads map[string]map[string]json.RawMessage
		}
		readJSON(t, f, &traj)
		var got []string
		for name, w := range traj.Workloads {
			got = append(got, name)
			for _, side := range []string{"parent", "change"} {
				var run struct{ Metrics map[string]json.RawMessage }
				if err := json.Unmarshal(w[side], &run); err != nil || run.Metrics == nil {
					t.Errorf("%s: workloads.%s.%s has no metrics (%v)", f, name, side, err)
					continue
				}
				for m := range run.Metrics {
					if !metrics[m] {
						t.Errorf("%s: workloads.%s.%s.metrics.%s is not an end-to-end metric of BENCHMARK.json", f, name, side, m)
					}
				}
			}
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(workloads, ",") {
			t.Errorf("%s: workloads %v, BENCHMARK.json declares %v", f, got, workloads)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestTrendReproducesTable runs trend over BENCH_26.json … BENCH_30.json
// and holds its chain column to the PR 25 → 30 table ROADMAP.md quotes,
// and its seams to the A/A readings quoted beside it.
func TestTrendReproducesTable(t *testing.T) {
	var files []string
	for pr := 26; pr <= 30; pr++ {
		files = append(files, fmt.Sprintf("../../BENCH_%d.json", pr))
	}
	var out, errOut bytes.Buffer
	if code := runTrend(append([]string{"-decl", "../../BENCHMARK.json"}, files...), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	// Rows are "workload metric cell… last": five files give five
	// cells and the chain, four seams and the bound.
	chain, seam := map[string]string{}, map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 8 && f[0] != "workload":
			chain[f[0]+" "+f[1]] = f[7]
		case len(f) == 7 && f[0] != "workload":
			seam[f[0]+" "+f[1]] = f[2:6]
		}
	}
	workloads := []string{"topk_cold", "stream_full", "cluster_scatter", "churn_rw"}
	for metric, want := range map[string][4]string{
		"p50_ms":          {"-40%", "-23%", "-1%", "-7%"},
		"p95_ms":          {"-32%", "-33%", "+0%", "-38%"},
		"ttfl_p50_ms":     {"-39%", "-40%", "-4%", "-6%"},
		"cpu_ms_per_op":   {"-45%", "-32%", "-8%", "-30%"},
		"alloc_kb_per_op": {"-15%", "-30%", "-12%", "-10%"},
		"rss_mb":          {"-5%", "-11%", "-13%", "-13%"},
		"put_p50_ms":      {"-10%", "+11%", "+4%", "+3%"},
	} {
		for i, w := range workloads {
			if got := chain[w+" "+metric]; got != want[i] {
				t.Errorf("%s %s: chain %q, want %q", w, metric, got, want[i])
			}
		}
	}
	// The seams ROADMAP.md cites as drift on identical code: two beyond
	// their bound, two inside it.
	for _, c := range []struct {
		key  string
		i    int
		want string
	}{
		{"churn_rw p50_ms", 1, "-29.0%!"},
		{"topk_cold put_p50_ms", 1, "+23.5%"},
		{"topk_cold rss_mb", 2, "+21.5%!"},
		{"topk_cold p50_ms", 0, "-12.7%"},
	} {
		if s := seam[c.key]; len(s) != 4 || s[c.i] != c.want {
			t.Errorf("%s seams %v, want %q at %d", c.key, s, c.want, c.i)
		}
	}
	if code := runTrend([]string{"-decl", "../../BENCHMARK.json"}, &out, &errOut); code != 2 {
		t.Errorf("no files: exit %d, want 2", code)
	}
}
