// Command ncqd serves nearest concept queries over HTTP/JSON: a
// long-running daemon around a shared document corpus with a result
// cache — the paper's "power of querying with the simplicity of
// searching" as a service.
//
// Usage:
//
//	ncqd -addr :8334 -load 'docs/*.xml'
//
// Endpoints:
//
//	POST   /v2/query       the query endpoint: {"doc":...,"terms":[...],
//	                       "limit":N,"cursor":...,"timeout_ms":N},
//	                       {"doc":"bib","query":"SELECT meet(e1,e2) FROM ..."} or
//	                       {"batch":[{...},{...}]} — single doc, whole corpus
//	                       and batches in one schema, with cursor pagination
//	                       (410 Gone when a cursor outlives a corpus
//	                       mutation) and per-request deadlines; ?stream=1
//	                       streams a term request as NDJSON — one meet per
//	                       line the moment the global rank yields it, then
//	                       a {"trailer":true,...} line with the counters
//	PUT    /v1/docs/{name} load/replace a document (body = XML); ?shards=K
//	                       splits it into K parallel subtree shards
//	GET    /v1/docs/{name} inspect a document
//	DELETE /v1/docs/{name} evict a document
//	GET    /v1/docs        list documents
//	GET    /v1/healthz     liveness
//	GET    /v1/stats       corpus, cache and traffic counters
//	GET    /v1/metrics     Prometheus text exposition
//
// Flags tune the cache byte budget, the per-document upload limit and
// the corpus fan-out width; -load preloads documents at start-up — XML
// files (split into -shards shards apiece, exactly as a PUT ?shards=K of
// the file would be), .snap snapshot files and the durable store's
// snapshot directories (see openFile). -thesaurus loads synonym classes
// — one comma-separated class per line — that vague-mode queries with
// "expand" broaden their terms through. -pprof-addr serves
// net/http/pprof on a separate listener (off by default) so a live
// daemon can be profiled without exposing the profiler on the query
// port.
//
// Durability: with -data-dir the corpus survives restarts and crashes.
// Every PUT persists per-shard snapshots plus a record in an
// append-only write-ahead log before it is acknowledged, and boot
// replays the log over the snapshots back to the exact pre-shutdown
// generation. -fsync picks the log's fsync policy (always, batch or
// off); see docs/OPERATIONS.md for the trade-offs and the recovery
// playbook.
//
// Observability and admission: logs are structured (log/slog) on
// stderr — -log-format selects text or json, -log-level the minimum
// level; every request emits one log line and /v1/metrics serves the
// Prometheus metrics documented in docs/OPERATIONS.md. -max-inflight
// caps concurrently executing query requests, -max-queue and
// -queue-wait size the wait queue in front of that cap; excess load is
// shed with 429 + Retry-After instead of queuing unboundedly.
//
// Cluster mode: with -coordinator the daemon serves no corpus of its
// own. Instead -workers names a comma-separated list of worker nodes
// (plain ncqd daemons); documents are placed on workers by consistent
// hashing of their names and /v2/query scatter-gathers every worker's
// NDJSON stream into one exact globally ranked answer:
//
//	ncqd -addr :8334 -node-name w1          # worker 1
//	ncqd -addr :8335 -node-name w2          # worker 2
//	ncqd -addr :8333 -coordinator -workers localhost:8334,localhost:8335
//
// -node-name and -role label the node on /v1/healthz and /v1/stats;
// -worker-timeout bounds each attempt of a coordinator's worker request
// (for a streamed query, the whole stream). How often a read is retried
// and how often the worker generation vector is refreshed are
// constants of internal/cluster, not flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ncq"
	"ncq/internal/cluster"
	"ncq/internal/durable"
	"ncq/internal/server"
	"ncq/internal/shard"
	"ncq/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is the testable entry point. When ready is non-nil it receives
// the daemon's base URL once the listener is accepting connections.
func run(argv []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("ncqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8334", "listen address")
		cacheBytes = fs.Int64("cache-bytes", 64<<20, "query result cache budget in bytes (0 disables)")
		maxBody    = fs.Int64("max-body", 32<<20, "maximum document upload size in bytes")
		workers    = fs.String("workers", "", "corpus query fan-out width (single node, 0 = GOMAXPROCS); with -coordinator, the comma-separated worker addresses")
		load       = fs.String("load", "", "glob of XML files, .snap snapshot files or snapshot directories to preload")
		shards     = fs.Int("shards", 1, "shards per preloaded XML document (1 = unsharded; snapshots keep their own framing)")
		thesaurus  = fs.String("thesaurus", "", "file of synonym classes (one comma-separated class per line) for vague-mode term expansion")
		dataDir    = fs.String("data-dir", "", "durable mode: persist documents (per-shard snapshots + write-ahead log) in this directory and recover them at boot (empty = in-memory only)")
		fsyncMode  = fs.String("fsync", "batch", "durable mode fsync policy for WAL appends: \"always\", \"batch\" or \"off\"")
		gracePeri  = fs.Duration("grace", 5*time.Second, "shutdown grace period")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")

		coordinator  = fs.Bool("coordinator", false, "run as a cluster coordinator over -workers instead of serving a local corpus")
		nodeName     = fs.String("node-name", "", "node identity on /v1/healthz, /v1/stats and stream headers (default \"ncqd\")")
		role         = fs.String("role", "", "topology label on /v1/healthz and /v1/stats (\"single\", \"worker\"; coordinators are always \"coordinator\")")
		workerTimout = fs.Duration("worker-timeout", 30*time.Second, "coordinator: per-worker deadline, spanning a whole streamed answer")

		logFormat   = fs.String("log-format", "text", "log output format: \"text\" or \"json\"")
		logLevel    = fs.String("log-level", "info", "minimum log level: \"debug\", \"info\", \"warn\" or \"error\"")
		maxInflight = fs.Int("max-inflight", 0, "admission control: maximum concurrently executing query requests (0 disables)")
		maxQueue    = fs.Int("max-queue", 0, "admission control: query requests allowed to wait for an execution slot beyond -max-inflight")
		queueWait   = fs.Duration("queue-wait", time.Second, "admission control: how long a queued query request may wait before it is shed with 429")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: ncqd [-addr :8334] [-cache-bytes N] [-max-body N] [-workers N] [-load GLOB] [-shards K] [-thesaurus FILE] [-data-dir DIR] [-fsync always|batch|off] [-pprof-addr ADDR] [-log-format text|json] [-log-level L] [-max-inflight N] [-max-queue N] [-queue-wait D]\n       ncqd -coordinator -workers HOST:PORT,HOST:PORT,... [-addr :8334] [-worker-timeout D]")
		return 2
	}
	if *shards < 0 || *shards > shard.MaxShards {
		fmt.Fprintf(stderr, "ncqd: -shards must be between 0 and %d\n", shard.MaxShards)
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "ncqd: -log-level: %v\n", err)
		return 2
	}
	hopts := &slog.HandlerOptions{Level: level}
	var lh slog.Handler
	switch *logFormat {
	case "text":
		lh = slog.NewTextHandler(stderr, hopts)
	case "json":
		lh = slog.NewJSONHandler(stderr, hopts)
	default:
		fmt.Fprintf(stderr, "ncqd: -log-format must be \"text\" or \"json\", not %q\n", *logFormat)
		return 2
	}
	nn := *nodeName
	if nn == "" {
		nn = "ncqd"
	}
	rl := *role
	switch {
	case *coordinator:
		rl = "coordinator"
	case rl == "":
		rl = "single"
	}
	logger := slog.New(lh).With("node", nn, "role", rl)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fsyncPolicy, err := wal.ParsePolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintf(stderr, "ncqd: -fsync: %v\n", err)
		return 2
	}

	var handler http.Handler
	if *coordinator {
		if *load != "" {
			fmt.Fprintln(stderr, "ncqd: -load does not apply to a coordinator; load documents through PUT /v1/docs/{name}")
			return 2
		}
		if *dataDir != "" {
			fmt.Fprintln(stderr, "ncqd: -data-dir does not apply to a coordinator; workers own the durable state")
			return 2
		}
		if *thesaurus != "" {
			fmt.Fprintln(stderr, "ncqd: -thesaurus does not apply to a coordinator; install synonym classes on the workers")
			return 2
		}
		wks, err := cluster.ParseWorkers(*workers)
		if err != nil {
			fmt.Fprintf(stderr, "ncqd: -workers: %v\n", err)
			return 2
		}
		coord, err := cluster.New(cluster.Config{
			NodeName:      *nodeName,
			Workers:       wks,
			WorkerTimeout: *workerTimout,
			CacheBytes:    *cacheBytes,
			Logger:        logger,
			MaxInFlight:   *maxInflight,
			MaxQueue:      *maxQueue,
			QueueWait:     *queueWait,
		})
		if err != nil {
			logger.Error("start failed", "err", err)
			return 1
		}
		defer coord.Close()
		go coord.Poll(ctx)
		logger.Info("coordinating workers", "workers", len(wks))
		handler = coord.Handler()
	} else {
		fanout := 0
		if *workers != "" {
			n, err := strconv.Atoi(*workers)
			if err != nil || n < 0 {
				fmt.Fprintf(stderr, "ncqd: -workers must be a non-negative fan-out width (or a worker list with -coordinator)\n")
				return 2
			}
			fanout = n
		}
		corpus := ncq.NewCorpus()
		corpus.SetParallelism(fanout)
		if *thesaurus != "" {
			// Installed BEFORE durable recovery on purpose: SetThesaurus
			// bumps the corpus generation, and recovery's
			// RestoreGeneration overwrites it with the exact pre-shutdown
			// value — so a restart with the same -thesaurus keeps
			// pre-shutdown cursors valid instead of mass-expiring them.
			t, err := loadThesaurus(*thesaurus)
			if err != nil {
				logger.Error("start failed", "err", err)
				return 1
			}
			corpus.SetThesaurus(t)
			logger.Info("loaded thesaurus", "file", *thesaurus)
		}
		opts := []server.Option{
			server.WithCacheBytes(*cacheBytes),
			server.WithMaxBody(*maxBody),
			server.WithNodeName(*nodeName),
			server.WithRole(*role),
			server.WithLogger(logger),
			server.WithAdmission(*maxInflight, *maxQueue, *queueWait),
		}
		// The one place the node learns whether it has a data directory:
		// it picks the writer -load and every PUT and DELETE go through.
		docs := durable.InMemory(corpus)
		if *dataDir != "" {
			// Recovery before anything else touches the corpus: replay the
			// WAL over the persisted snapshots to the exact pre-shutdown
			// (or pre-crash) generation. Every later change commits through
			// the store, persisted before the corpus applies it.
			store, err := durable.Open(*dataDir, fsyncPolicy, corpus)
			if err != nil {
				logger.Error("recovery failed", "err", err, "data-dir", *dataDir)
				return 1
			}
			defer store.Close()
			st := store.Stats()
			logger.Info("recovered corpus",
				"docs", corpus.Len(),
				"generation", corpus.Generation(),
				"wal_records", st.ReplayRecords,
				"log_truncated", st.WAL.Truncated,
				"elapsed", st.ReplayDuration)
			docs = store
			opts = append(opts, server.WithDurability(store))
		}
		if *load != "" {
			n, err := preload(corpus, docs, *load, *shards)
			if err != nil {
				logger.Error("start failed", "err", err)
				return 1
			}
			logger.Info("preloaded documents", "docs", n)
		}
		handler = server.New(corpus, opts...).Handler()
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		pprofSrv, err := servePprof(*pprofAddr, logger)
		if err != nil {
			logger.Error("start failed", "err", err)
			return 1
		}
		defer pprofSrv.Close()
	}

	errCh := make(chan error, 1)
	ln, err := newListener(httpSrv)
	if err != nil {
		logger.Error("start failed", "err", err)
		return 1
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if ready != nil {
		ready <- "http://" + ln.Addr().String()
	}
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		return 1
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *gracePeri)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown failed", "err", err)
		return 1
	}
	logger.Info("bye")
	return 0
}

// servePprof starts the opt-in profiling listener: net/http/pprof on
// its own mux and its own address, so the serving port never exposes
// the profiler and a live daemon can be profiled without redeploying.
func servePprof(addr string, logger *slog.Logger) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	logger.Info("pprof listening", "addr", ln.Addr().String())
	go srv.Serve(ln) //nolint:errcheck // closed on shutdown
	return srv, nil
}

// loadThesaurus parses the -thesaurus file into synonym classes.
func loadThesaurus(file string) (*ncq.Thesaurus, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, fmt.Errorf("-thesaurus: %w", err)
	}
	defer f.Close()
	t, err := ncq.ParseThesaurus(f)
	if err != nil {
		return nil, fmt.Errorf("-thesaurus %s: %w", file, err)
	}
	return t, nil
}

// preload registers every path matching the glob, each under its base
// name without the extension (docs/dblp.xml -> dblp), through docs —
// the node's one writer, so with -data-dir a preloaded document
// replaces any recovered one of its name and persists like any PUT. A
// nil docs writes to corpus in memory.
func preload(corpus *ncq.Corpus, docs durable.Writer, glob string, shards int) (int, error) {
	if docs == nil {
		docs = durable.InMemory(corpus)
	}
	files, err := filepath.Glob(glob)
	if err != nil {
		return 0, fmt.Errorf("bad -load glob: %w", err)
	}
	if len(files) == 0 {
		return 0, fmt.Errorf("-load %q matched no files", glob)
	}
	for _, file := range files {
		name, dbs, sharded, err := openFile(file, shards)
		if err == nil {
			_, err = docs.Put(name, dbs, sharded)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", file, err)
		}
	}
	return len(files), nil
}

// openFile loads one -load match: the member name it registers under,
// its databases, and whether they form a sharded member. An XML file
// gets ncq.OpenSharded's bytes-to-shards decision — the one a PUT
// ?shards=K of it would get; a .snap file is a plain member whatever
// -shards says; a directory is the durable store's to read and name
// (durable.OpenDir).
func openFile(file string, shards int) (name string, dbs []*ncq.Database, sharded bool, err error) {
	info, err := os.Stat(file)
	if err != nil {
		return "", nil, false, err
	}
	if info.IsDir() {
		return durable.OpenDir(file)
	}
	f, err := os.Open(file)
	if err != nil {
		return "", nil, false, err
	}
	defer f.Close()
	name = strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
	if filepath.Ext(file) == ".snap" {
		db, err := ncq.OpenSnapshot(context.Background(), f)
		return name, []*ncq.Database{db}, false, err
	}
	dbs, err = ncq.OpenSharded(context.Background(), f, info.Size(), shards)
	return name, dbs, shards > 1, err
}
