package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"ncq"
)

// Workload names are final: BENCHMARK.json and later issues refer to
// them.
const (
	topkCold       = "topk_cold"
	streamFull     = "stream_full"
	clusterScatter = "cluster_scatter"
	churnRW        = "churn_rw"
)

var workloadNames = []string{topkCold, streamFull, clusterScatter, churnRW}

// The generators' vocabularies (internal/datagen/vocab.go keeps them
// unexported). A term that drifts from the generator's only empties its
// answers; the oracle and the server would still agree.
var (
	lastNames = []string{
		"Schmidt", "Kersten", "Windhouwer", "Waas", "Boncz", "Struzik",
		"Meyer", "Fischer", "Weber", "Wagner", "Becker", "Schulz", "Hoffmann",
		"Koch", "Bauer", "Richter", "Klein", "Wolf", "Schroeder", "Neumann",
		"Schwarz", "Zimmermann", "Braun", "Krueger", "Hofmann", "Hartmann",
		"Lange", "Schmitt", "Werner", "Krause", "Lehmann", "Maier", "Bit",
		"Byte",
	}
	titleWords = []string{
		"Efficient", "Scalable", "Adaptive", "Incremental", "Distributed",
		"Parallel", "Declarative", "Semistructured", "Relational", "Temporal",
		"Spatial", "Approximate", "Optimal", "Robust", "Dynamic",
		"Query", "Storage", "Indexing", "Retrieval", "Processing", "Mining",
		"Integration", "Optimization", "Evaluation", "Compression", "Caching",
		"Replication", "Recovery", "Clustering", "Partitioning",
		"Databases", "Documents", "Streams", "Trees", "Graphs", "Views",
		"Schemas", "Transactions", "Workloads", "Architectures", "Engines",
		"Warehouses", "Repositories", "Hierarchies", "Collections",
	}
	venues = []string{"ICDE", "VLDB", "SIGMOD", "EDBT", "PODS"}
)

const (
	yearFrom, yearTo = 1984, 1999

	// churn_rw: each cycle replaces bib00 and then reads churnQueries
	// fixed requests churnRepeats times each, so a cycle is exactly
	// churnQueries misses and churnQueries*(churnRepeats-1) hits.
	churnQueries = 50
	churnRepeats = 5

	// baseWithin is far above any distance in the corpus, so adding the
	// round number to it changes the cache key and nothing else.
	baseWithin = 100

	// vagueRestrict misspells /dblp/inproceedings by one letter.
	vagueRestrict = "/dblp/inprocedings"
)

// query is one request of a workload, in a form that renders both the
// HTTP body and the in-process ncq.Request the oracle runs.
type query struct {
	terms  []string
	limit  int
	vague  bool // approximate restrict on the misspelled record path
	stream bool // POST /v2/query?stream=1 (cache bypassed by the server)
	vary   bool // "within": baseWithin+round, so no request repeats in a run
}

// wireQuery is the subset of the /v2/query body the workloads use.
type wireQuery struct {
	Terms       []string   `json:"terms"`
	ExcludeRoot bool       `json:"exclude_root"`
	Restrict    []string   `json:"restrict,omitempty"`
	Within      int        `json:"within,omitempty"`
	Limit       int        `json:"limit,omitempty"`
	Vague       *ncq.Vague `json:"vague,omitempty"`
}

func (q query) within(round int) int {
	if q.vary {
		return baseWithin + round
	}
	return 0
}

func (q query) body(round int) []byte {
	w := wireQuery{Terms: q.terms, ExcludeRoot: true, Within: q.within(round), Limit: q.limit}
	if q.vague {
		w.Restrict = []string{vagueRestrict}
		w.Vague = &ncq.Vague{MaxSlack: 2}
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(fmt.Sprintf("bench: encode request: %v", err)) // plain strings and ints
	}
	return b
}

func (q query) path() string {
	if q.stream {
		return "/v2/query?stream=1"
	}
	return "/v2/query"
}

// request is what the oracle and the traced run execute in process.
func (q query) request(round int) ncq.Request {
	opt := ncq.ExcludeRoot()
	if w := q.within(round); w > 0 {
		opt.Within(w)
	}
	r := ncq.Request{Terms: q.terms, Options: opt, Limit: q.limit}
	if q.vague {
		opt.Restrict(vagueRestrict)
		r.Vague = &ncq.Vague{MaxSlack: 2}
	}
	return r
}

// step is one operation of a round: a query (index into
// workload.queries) with the X-NCQ-Cache value it must come back with,
// or the churn PUT.
type step struct {
	put   bool
	query int
	cache string
}

// workload is a seed-determined round: the same steps, in the same
// order, every round.
type workload struct {
	name    string
	queries []query
	steps   []step
}

func (w *workload) cluster() bool { return w.name == clusterScatter }

// opsPerRound counts operations, PUTs included.
func (w *workload) opsPerRound() int { return len(w.steps) }

// newWorkload builds the named workload's round from the seed.
func newWorkload(name string, seed int64, sc scale) (*workload, error) {
	n, ok := sc.ops[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	r := rand.New(rand.NewSource(seed*31 + int64(len(name))))
	w := &workload{name: name}
	switch name {
	case topkCold:
		w.queries = topkQueries(r, n, true)
		for i := range w.queries {
			w.steps = append(w.steps, step{query: i, cache: "miss"})
		}
	case streamFull:
		for y := yearFrom; y <= yearTo; y++ {
			w.queries = append(w.queries, query{terms: []string{strconv.Itoa(y), "html"}, stream: true})
		}
		w.steps = shuffledRepeats(r, len(w.queries), n, "bypass")
	case clusterScatter:
		for _, v := range venues {
			for y := yearFrom; y <= yearTo; y++ {
				if v == "ICDE" && y == 1985 {
					continue // datagen.ICDEYearMissing: an empty answer has no first meet line
				}
				w.queries = append(w.queries, query{terms: []string{v, strconv.Itoa(y)}, stream: true})
			}
		}
		w.steps = shuffledRepeats(r, len(w.queries), n, "bypass")
	case churnRW:
		w.queries = topkQueries(r, churnQueries, false)
		for c := 0; c < n; c++ {
			w.steps = append(w.steps, step{put: true})
			seen := make([]bool, len(w.queries))
			for _, s := range shuffledRepeats(r, len(w.queries), len(w.queries)*churnRepeats, "") {
				s.cache = "hit"
				if !seen[s.query] {
					seen[s.query], s.cache = true, "miss"
				}
				w.steps = append(w.steps, s)
			}
		}
	}
	return w, nil
}

// topkQueries draws n distinct [lastName, titleWord] requests with
// limit 10; every fifth is the vague form.
func topkQueries(r *rand.Rand, n int, vary bool) []query {
	pairs := r.Perm(len(lastNames) * len(titleWords))
	qs := make([]query, n)
	for i := range qs {
		p := pairs[i%len(pairs)]
		qs[i] = query{
			terms: []string{lastNames[p/len(titleWords)], titleWords[p%len(titleWords)]},
			limit: 10,
			vague: i%5 == 4,
			vary:  vary,
		}
	}
	return qs
}

// shuffledRepeats returns n steps cycling through nq queries as evenly
// as n allows, in seeded order.
func shuffledRepeats(r *rand.Rand, nq, n int, cache string) []step {
	steps := make([]step, n)
	for i := range steps {
		steps[i] = step{query: i % nq, cache: cache}
	}
	r.Shuffle(n, func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}
