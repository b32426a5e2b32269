package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// node is one server process of the system under test. The benchmark
// boots ncqd children (daemon); the smoke test substitutes listeners
// inside the test process.
type node interface {
	cpuSeconds() (float64, error)
	totalAllocBytes(ctx context.Context) (float64, error)
	peakRSSBytes() (float64, error)
	stop()
}

// instance is the system under test: one ncqd, or a coordinator over
// three workers. All of its processes are counted in the CPU, alloc
// and RSS metrics.
type instance struct {
	nodes []node
	url   string // where the client sends
}

// boot starts a fresh, empty instance.
type boot func(ctx context.Context, cluster bool) (*instance, error)

func (in *instance) stop() {
	// Coordinator first, so it never polls a worker that is gone.
	for i := len(in.nodes) - 1; i >= 0; i-- {
		in.nodes[i].stop()
	}
}

func (in *instance) sum(read func(node) (float64, error)) (float64, error) {
	total := 0.0
	for _, d := range in.nodes {
		v, err := read(d)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// workerAddrs are fixed, not ephemeral: the coordinator's ring hashes
// a worker's host:port, so only fixed addresses place the documents
// the same way in every run.
var workerAddrs = []string{"127.0.0.1:18401", "127.0.0.1:18402", "127.0.0.1:18403"}

// firstTouch is how many of the round's leading queries each set-up
// sends before it counts as done, so lazily built state is paid inside
// setup_s.
const firstTouch = 16

// bootDaemons is the benchmark's boot: real ncqd child processes with
// default settings.
func bootDaemons(bin, logDir string) boot {
	return func(ctx context.Context, cluster bool) (*instance, error) {
		in := &instance{}
		start := func(name string, args ...string) (*daemon, error) {
			d, err := startDaemon(ctx, bin, logDir, name, args...)
			if err != nil {
				in.stop()
				return nil, err
			}
			in.nodes = append(in.nodes, d)
			return d, nil
		}
		if cluster {
			for i, addr := range workerAddrs {
				if _, err := start(fmt.Sprintf("w%d", i+1), "-role", "worker", "-addr", addr); err != nil {
					return nil, err
				}
			}
		}
		front := []string{"single"}
		if cluster {
			front = []string{"coordinator", "-coordinator", "-workers", strings.Join(workerAddrs, ",")}
		}
		d, err := start(front[0], front[1:]...)
		if err != nil {
			return nil, err
		}
		in.url = d.url
		return in, nil
	}
}

// timing is a measured duration with the host's slowness beside it
// (hostRef.speed before and after).
type timing struct {
	took time.Duration
	slow float64
}

// atRef is the duration at reference host speed.
func (t timing) atRef() time.Duration { return time.Duration(float64(t.took) / t.slow) }

// setUp boots an instance, uploads the corpus over HTTP and sends the
// first-touch queries; the elapsed time is one setup_s sample.
func setUp(ctx context.Context, up boot, ref *hostRef, w *workload, c corpus) (*instance, timing, error) {
	slow0 := ref.speed()
	start := time.Now()
	in, err := up(ctx, w.cluster())
	if err != nil {
		return nil, timing{}, err
	}
	fail := func(err error) (*instance, timing, error) {
		in.stop()
		return nil, timing{}, err
	}
	cl := newClient(in.url)
	defer cl.close()
	for _, d := range c.docs {
		if _, err := cl.put(ctx, d); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < firstTouch && i < len(w.steps); i++ {
		if s := w.steps[i]; !s.put {
			q := w.queries[s.query]
			// Round -1: a cache key no later round uses.
			if _, err := cl.do(ctx, q, q.body(-1), false); err != nil {
				return fail(fmt.Errorf("first-touch query %d: %w", i, err))
			}
		}
	}
	took := time.Since(start)
	time.Sleep(settle)
	return in, timing{took: took, slow: (slow0 + ref.speed()) / 2}, nil
}

// roundStats is one timed round.
type roundStats struct {
	wall              time.Duration
	ops               int
	last, first, puts []time.Duration // query latencies to last byte / first line; PUT latencies
	cpuS, allocB      float64         // server processes, delta over the round
	steal, load       float64         // host diagnostics
	slow              float64         // host slowness beside the round: hostRef.speed before and after
}

func (st roundStats) opsPerS() float64    { return float64(st.ops) / st.wall.Seconds() }
func (st roundStats) cpuMSPerOp() float64 { return st.cpuS * 1000 / float64(st.ops) }

// pctMS is the p-quantile of ds in milliseconds.
func pctMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(p*float64(len(s)-1)+0.5)]) / float64(time.Millisecond)
}

// runner drives one instance through rounds.
type runner struct {
	w      *workload
	c      corpus
	o      *oracle
	in     *instance
	cl     *client
	state  int // corpus state the oracle answers for; churn PUTs flip it
	round  int // 0 = warm-up
	failed int
	errs   []string // first few failures, for the report
	same   int      // replies equal to the oracle's bytes
	ref    *hostRef
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// playRound runs the workload's steps once. With check set (the
// warm-up round) sampled replies are compared byte for byte with the
// oracle; every round checks status, trailer, cache header and meet
// count of every reply.
func (r *runner) playRound(ctx context.Context, check bool) (roundStats, error) {
	bodies := make([][]byte, len(r.w.queries))
	for i, q := range r.w.queries {
		bodies[i] = q.body(r.round)
	}
	st := roundStats{
		last:  make([]time.Duration, 0, len(r.w.steps)),
		first: make([]time.Duration, 0, len(r.w.steps)),
	}
	cpu0, err := r.in.sum(node.cpuSeconds)
	if err != nil {
		return st, err
	}
	alloc0, err := r.in.sum(func(d node) (float64, error) { return d.totalAllocBytes(ctx) })
	if err != nil {
		return st, err
	}
	// The generator's own collector stays off the clock: collect now,
	// then not again until the round is over.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	slow0 := r.ref.speed()
	host0 := readHost()
	start := time.Now()
	for i, s := range r.w.steps {
		if s.put {
			alt := r.c.docs[0]
			if r.state == 0 {
				alt = r.c.churnAlt
			}
			took, err := r.cl.put(ctx, alt)
			st.ops++
			if err != nil {
				r.fail("round %d step %d: %v", r.round, i, err)
				continue
			}
			r.state = 1 - r.state
			st.puts = append(st.puts, took)
			continue
		}
		q, want := r.w.queries[s.query], r.o.expect[r.state][s.query]
		keep := check && want.payload != nil
		rep, err := r.cl.do(ctx, q, bodies[s.query], keep)
		st.ops++
		switch {
		case err != nil:
			r.fail("round %d step %d %v: %v", r.round, i, q.terms, err)
		case rep.cache != s.cache:
			r.fail("round %d step %d %v: X-NCQ-Cache %q, want %q", r.round, i, q.terms, rep.cache, s.cache)
		case rep.meets != want.meets:
			r.fail("round %d step %d %v: %d meets, oracle has %d", r.round, i, q.terms, rep.meets, want.meets)
		case keep && !samePayload(rep.payload, want.payload):
			r.fail("round %d step %d %v: reply differs from the oracle's bytes", r.round, i, q.terms)
		default:
			if keep {
				r.same++
			}
			st.last = append(st.last, rep.last)
			st.first = append(st.first, rep.first)
		}
	}
	st.wall = time.Since(start)
	host1 := readHost()
	st.slow = (slow0 + r.ref.speed()) / 2
	st.steal, st.load = stealShare(host0, host1), loadAvg()
	cpu1, err := r.in.sum(node.cpuSeconds)
	if err != nil {
		return st, err
	}
	alloc1, err := r.in.sum(func(d node) (float64, error) { return d.totalAllocBytes(ctx) })
	if err != nil {
		return st, err
	}
	st.cpuS, st.allocB = cpu1-cpu0, alloc1-alloc0
	r.round++
	return st, nil
}

// samePayload treats an absent "meets" key and a null one alike: the
// server omits an empty array.
func samePayload(got, want []byte) bool {
	if len(got) == 0 {
		got = []byte("null")
	}
	if len(want) == 0 {
		want = []byte("null")
	}
	return bytes.Equal(got, want)
}

// settle is how long the harness waits after PUTs before it reads the
// host's speed: a PUT leaves the server's collector busy for a while,
// and that would slow the reference kernel, not the host.
const settle = 150 * time.Millisecond

// reingest re-uploads every plain document with identical bytes,
// passes times over, once the timed rounds are over: steady-state PUT
// latency for the read-only workloads, never a first-touch one. Each
// pass is read against the host's speed just before and just after it.
func (r *runner) reingest(ctx context.Context, passes int) []timing {
	var took []timing
	slow := r.ref.speed()
	for pass := 0; pass < passes; pass++ {
		first := len(took)
		for _, d := range r.c.docs {
			if d.shards > 1 {
				continue
			}
			t, err := r.cl.put(ctx, d)
			if err != nil {
				r.fail("re-ingest %s: %v", d.name, err)
				continue
			}
			took = append(took, timing{took: t})
		}
		time.Sleep(settle)
		after := r.ref.speed()
		for i := first; i < len(took); i++ {
			took[i].slow = (slow + after) / 2
		}
		slow = after
	}
	return took
}

// result is one run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	errs      []string
	oracleOK  int                // replies compared byte for byte
	metrics   map[string]float64 // the contract's: time-based ones at reference host speed
	raw       map[string]float64 // the same, as the clock read them
	rounds    []roundStats
	setups    []timing
	puts      []timing           // what put_p50_ms is the median of
	extra     map[string]float64 // printed, not gated
	phases    []string           // where the run's own wall time went
}

// endToEnd runs one workload against the listeners up boots, for at
// least seconds of timed rounds.
func endToEnd(ctx context.Context, up boot, name string, seed int64, seconds float64, sc scale) (*result, error) {
	res := &result{workload: name, metrics: map[string]float64{}, raw: map[string]float64{}, extra: map[string]float64{}}
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	mark := time.Now()
	phase := func(what string) {
		res.phases = append(res.phases, fmt.Sprintf("%s %.1fs", what, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	w, err := newWorkload(name, seed, sc)
	if err != nil {
		return nil, err
	}
	c := buildCorpus(seed, sc)
	phase("generate")
	o, err := newOracle(ctx, w, c)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the oracle's corpus is garbage now
	phase("oracle")

	var in *instance
	for i := 0; i < sc.setups; i++ {
		if in != nil {
			in.stop()
		}
		var took timing
		if in, took, err = setUp(ctx, up, ref, w, c); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.setups = append(res.setups, took)
	}
	defer in.stop()
	phase("set-ups")

	r := &runner{w: w, c: c, o: o, in: in, cl: newClient(in.url), ref: ref}
	defer r.cl.close()
	if _, err := r.playRound(ctx, true); err != nil { // warm-up: checked, untimed
		return nil, err
	}
	phase("warm-up")
	begin := time.Now()
	for len(res.rounds) < sc.minRounds || time.Since(begin).Seconds() < seconds {
		st, err := r.playRound(ctx, false)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, st)
		res.attempted += st.ops
	}
	phase("timed rounds")
	var puts []timing
	if name == churnRW {
		for _, st := range res.rounds {
			for _, t := range st.puts {
				puts = append(puts, timing{took: t, slow: st.slow})
			}
		}
	} else {
		puts = r.reingest(ctx, sc.reingest)
	}
	phase("re-ingest")
	rss, err := in.sum(node.peakRSSBytes)
	if err != nil {
		return nil, err
	}
	res.failed, res.errs, res.oracleOK, res.puts = r.failed, r.errs, r.same, puts
	summarise(res, rss)
	return res, nil
}

// summarise turns rounds into metrics: every timing is computed per
// round and the run reports the median over the rounds, once as the
// clock read it (raw) and once at reference host speed (metrics).
func summarise(res *result, rssBytes float64) {
	// perRound is the median over rounds of f — as read, and with each
	// round's value first scaled by scale(value, that round's slowness).
	perRound := func(f func(roundStats) float64, scale func(v, slow float64) float64) (raw, ref float64) {
		rawVs, refVs := make([]float64, len(res.rounds)), make([]float64, len(res.rounds))
		for i, st := range res.rounds {
			rawVs[i] = f(st)
			refVs[i] = scale(rawVs[i], st.slow)
		}
		return median(rawVs), median(refVs)
	}
	slower := func(v, slow float64) float64 { return v / slow } // a time: shorter on a faster host
	faster := func(v, slow float64) float64 { return v * slow } // a rate
	asIs := func(v, _ float64) float64 { return v }             // a count
	lastMS := func(p float64) func(roundStats) float64 {
		return func(st roundStats) float64 { return pctMS(st.last, p) }
	}
	raw, ref := res.raw, res.metrics
	raw["ops_per_s"], ref["ops_per_s"] = perRound(roundStats.opsPerS, faster)
	raw["p50_ms"], ref["p50_ms"] = perRound(lastMS(0.50), slower)
	raw["p95_ms"], ref["p95_ms"] = perRound(lastMS(0.95), slower)
	raw["ttfl_p50_ms"], ref["ttfl_p50_ms"] = perRound(func(st roundStats) float64 { return pctMS(st.first, 0.50) }, slower)
	raw["cpu_ms_per_op"], ref["cpu_ms_per_op"] = perRound(roundStats.cpuMSPerOp, slower)
	raw["alloc_kb_per_op"], ref["alloc_kb_per_op"] = perRound(func(st roundStats) float64 { return st.allocB / 1024 / float64(st.ops) }, asIs)
	raw["rss_mb"], ref["rss_mb"] = rssBytes/(1<<20), rssBytes/(1<<20)

	medianOf := func(ts []timing, unit time.Duration) (float64, float64) {
		rawVs, refVs := make([]float64, len(ts)), make([]float64, len(ts))
		for i, t := range ts {
			rawVs[i] = float64(t.took) / float64(unit)
			refVs[i] = float64(t.atRef()) / float64(unit)
		}
		return median(rawVs), median(refVs)
	}
	raw["put_p50_ms"], ref["put_p50_ms"] = medianOf(res.puts, time.Millisecond)
	raw["setup_s"], ref["setup_s"] = medianOf(res.setups, time.Second)

	_, res.extra["p99_ms"] = perRound(lastMS(0.99), slower)
	res.extra["round_s"], _ = perRound(func(st roundStats) float64 { return st.wall.Seconds() }, asIs)
	res.extra["drain_share"] = (raw["p50_ms"] - raw["ttfl_p50_ms"]) / raw["p50_ms"]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
