package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"testing"

	"ncq"
	"ncq/internal/server"
)

// selfNode stands in for an ncqd child: listeners inside the test
// process, whose own counters it reports.
type selfNode struct{ close func() }

func (selfNode) cpuSeconds() (float64, error)   { return procCPUSeconds(os.Getpid()) }
func (selfNode) peakRSSBytes() (float64, error) { return procPeakRSSBytes(os.Getpid()) }
func (n selfNode) stop()                        { n.close() }
func (selfNode) totalAllocBytes(context.Context) (float64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc), nil
}

func bootInProcess(_ context.Context, cluster bool) (*instance, error) {
	h, closeWorkers := server.New(ncq.NewCorpus()).Handler(), func() {}
	if cluster {
		var err error
		if h, closeWorkers, err = inprocCluster(func(h http.Handler) http.Handler { return h }); err != nil {
			return nil, err
		}
	}
	ts := httptest.NewServer(h)
	return &instance{url: ts.URL, nodes: []node{selfNode{close: func() { ts.Close(); closeWorkers() }}}}, nil
}

// TestSmoke runs all four workloads end to end at toy scale against
// in-process listeners: zero failed operations, the oracle's bytes on
// the wire, every metric present.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := endToEnd(context.Background(), bootInProcess, name, 7, 0, toyScale)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.errs)
			}
			if res.oracleOK == 0 {
				t.Fatal("no reply was compared with the oracle")
			}
			for _, d := range endToEndMetrics {
				if v, ok := res.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("metric %s = %v, want a positive value", d.name, v)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced run at toy scale: the layer re-runs
// agree with the corpus and every per-layer metric is reported.
func TestSmokeTraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := runTraced(context.Background(), name, 7, toyScale, dir, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced run incorrect: %+v", rep)
			}
			for _, d := range perLayerMetrics {
				if _, ok := rep.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
		})
	}
}

// TestSeedDeterminism pins that a seed yields byte-identical documents
// and request lists, and that another seed yields others.
func TestSeedDeterminism(t *testing.T) {
	render := func(seed int64) []byte {
		var buf bytes.Buffer
		c := buildCorpus(seed, toyScale)
		for _, d := range append(c.docs, c.churnAlt) {
			buf.WriteString(d.name)
			buf.Write(d.xml)
		}
		for _, name := range workloadNames {
			w, err := newWorkload(name, seed, fullScale)
			if err != nil {
				t.Fatal(err)
			}
			for round := -1; round < 3; round++ {
				for _, s := range w.steps {
					if s.put {
						buf.WriteString("PUT\n")
						continue
					}
					q := w.queries[s.query]
					buf.WriteString(q.path() + " " + s.cache + " ")
					buf.Write(q.body(round))
					buf.WriteByte('\n')
				}
			}
		}
		return buf.Bytes()
	}
	a, b, other := render(3), render(3), render(4)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different inputs")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds produced the same inputs")
	}
}

// TestChurnCycleShape pins churn_rw's construction: every cycle is one
// PUT, then exactly churnQueries misses and churnQueries*(churnRepeats-1)
// hits, each query's first occurrence the miss.
func TestChurnCycleShape(t *testing.T) {
	w, err := newWorkload(churnRW, 1, fullScale)
	if err != nil {
		t.Fatal(err)
	}
	cycle := 1 + churnQueries*churnRepeats
	if len(w.steps) != fullScale.ops[churnRW]*cycle {
		t.Fatalf("%d steps, want %d cycles of %d", len(w.steps), fullScale.ops[churnRW], cycle)
	}
	for c := 0; c < fullScale.ops[churnRW]; c++ {
		steps := w.steps[c*cycle : (c+1)*cycle]
		if !steps[0].put {
			t.Fatalf("cycle %d does not start with the PUT", c)
		}
		seen := map[int]bool{}
		misses := 0
		for _, s := range steps[1:] {
			if want := map[bool]string{false: "miss", true: "hit"}[seen[s.query]]; s.put || s.cache != want {
				t.Fatalf("cycle %d query %d: cache %q, want %q", c, s.query, s.cache, want)
			}
			if !seen[s.query] {
				misses++
			}
			seen[s.query] = true
		}
		if misses != churnQueries {
			t.Fatalf("cycle %d has %d misses, want %d", c, misses, churnQueries)
		}
	}
}

// TestTopkColdNeverRepeats pins that no two requests of a topk_cold
// run share a body, within a round or across rounds.
func TestTopkColdNeverRepeats(t *testing.T) {
	w, err := newWorkload(topkCold, 1, fullScale)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for round := -1; round < 4; round++ {
		for _, q := range w.queries {
			b := string(q.body(round))
			if seen[b] {
				t.Fatalf("request repeats: %s", b)
			}
			seen[b] = true
		}
	}
}

// TestBenchmarkJSONAgrees pins that BENCHMARK.json and the harness name
// the same workloads and the same metrics with the same units, bounds
// and directions, and that every name fits the contract's alphabet.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
		if _, ok := fullScale.ops[w.Name]; !ok {
			t.Errorf("workload %q has no round size", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s metric %q (%q) is outside the contract's alphabet", kind, g.Name, g.Unit)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEndMetrics)
	same("per-layer", spec.PerLayer, perLayerMetrics)
}
