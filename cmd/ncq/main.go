// Command ncq runs nearest concept queries against an XML file from
// the command line.
//
// Usage:
//
//	ncq -f doc.xml stats
//	ncq -f doc.xml paths                    # the storage catalogue
//	ncq -f doc.xml transform 4              # Figure-2 style dump
//	ncq -f doc.xml search Bit 1999          # the nodes each term locates
//	ncq -f doc.xml meet Bit 1999            # nearest concepts of the terms
//	ncq -f doc.xml query "SELECT meet(e1, e2) FROM //cdata AS e1, //cdata AS e2 WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'"
//	ncq -f doc.xml repl                     # interactive session
//
//	ncq -f doc.xml -save-snapshot doc.snap stats   # persist the store
//	ncq -snap doc.snap meet Bit 1999               # reload without parsing
//
//	ncq -f doc.xml -stream meet Bit 1999           # print meets as they rank
//	ncq -server http://localhost:8334 -stream meet Bit 1999
//
// meet accepts the options -exclude-root, -within and -show to control
// the operator and result rendering. -stream switches meet to
// incremental output: each nearest concept is printed the moment the
// ranked stream yields it, with the summary line last. -server runs
// the meet against a running ncqd instead of a local file — with
// -stream it consumes the daemon's NDJSON endpoint
// (POST /v2/query?stream=1), printing each line as it arrives.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"ncq"
	"ncq/internal/wal"
	"ncq/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, loads the database
// and dispatches the command, writing results to stdout and diagnostics
// to stderr. The return value is the process exit code.
func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file        = fs.String("f", "", "XML input file")
		snap        = fs.String("snap", "", "snapshot input file (alternative to -f)")
		saveSnap    = fs.String("save-snapshot", "", "write a snapshot of the loaded store to this file")
		excludeRoot = fs.Bool("exclude-root", true, "meet: discard matches at the document root")
		within      = fs.Int("within", 0, "meet: maximum witness distance (0 = unbounded)")
		show        = fs.Bool("show", false, "meet: print the matched subtrees")
		stream      = fs.Bool("stream", false, "meet: print results incrementally as the ranked stream yields them")
		serverURL   = fs.String("server", "", "run meet against a running ncqd at this base URL instead of a local file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	usage := func() int {
		fmt.Fprintln(stderr,
			"usage: ncq {-f doc.xml | -snap doc.snap} [-stream] {stats | paths | transform [N] | search TERM... | meet TERM... | query SQL | repl}\n"+
				"       ncq -server URL [-stream] meet TERM...")
		return 2
	}
	if len(args) == 0 {
		return usage()
	}
	mf := meetFlags{ncq.OptionSpec{ExcludeRoot: *excludeRoot, Within: *within}, *show, *stream}
	if *serverURL != "" {
		if args[0] != "meet" {
			fmt.Fprintln(stderr, "ncq: -server supports the meet command only")
			return usage()
		}
		if len(args) < 2 {
			fmt.Fprintln(stderr, "ncq: meet needs at least one term")
			return usage()
		}
		if *show {
			// Rendering a subtree needs the loaded document, which only
			// the daemon holds; don't accept the flag and drop it.
			fmt.Fprintln(stderr, "ncq: -show needs a local document (-f or -snap); ignored with -server")
		}
		if *file != "" || *snap != "" {
			fmt.Fprintln(stderr, "ncq: -f/-snap are ignored with -server; the query runs against the daemon's corpus")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := remoteMeet(ctx, *serverURL, args[1:], mf, stdout); err != nil {
			fmt.Fprintf(stderr, "ncq: %v\n", err)
			return 1
		}
		return 0
	}
	if (*file == "") == (*snap == "") {
		return usage()
	}

	db, err := load(*file, *snap)
	if err != nil {
		fmt.Fprintf(stderr, "ncq: %v\n", err)
		return 1
	}
	if *saveSnap != "" {
		// Crash-safe: an interrupted save never leaves a truncated file
		// where a good snapshot (or nothing) used to be.
		if err := wal.WriteFile(*saveSnap, db.SaveSnapshot); err != nil {
			fmt.Fprintf(stderr, "ncq: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "ncq: snapshot written to %s\n", *saveSnap)
	}

	// Queries run through the unified Run API under a signal-aware
	// context, so an interrupt cancels a long meet instead of killing
	// the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cmd, rest := args[0], args[1:]
	if err := dispatch(ctx, db, cmd, rest, mf, stdin, stdout); err != nil {
		fmt.Fprintf(stderr, "ncq: %v\n", err)
		return 1
	}
	return 0
}

func load(file, snap string) (*ncq.Database, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ncq.Open(f)
	}
	f, err := os.Open(snap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ncq.OpenSnapshot(context.Background(), f)
}

// meetFlags holds the meet command's flags. The options are one spec,
// sent as it is to a daemon and run as ncq.NewOptions of it locally, so
// both refuse or answer alike.
type meetFlags struct {
	opts   ncq.OptionSpec // -exclude-root, -within
	show   bool
	stream bool
}

func dispatch(ctx context.Context, db *ncq.Database, cmd string, rest []string, mf meetFlags, stdin io.Reader, stdout io.Writer) error {
	switch cmd {
	case "stats":
		st := db.Stats()
		fmt.Fprintf(stdout, "nodes         %d\n", st.Nodes)
		fmt.Fprintf(stdout, "paths         %d\n", st.Paths)
		fmt.Fprintf(stdout, "associations  %d\n", st.Associations)
		fmt.Fprintf(stdout, "column bytes  %d\n", st.MemBytes)
		return nil
	case "paths":
		for _, pi := range db.Paths() {
			kind := "elem"
			if pi.Attr {
				kind = "attr"
			}
			fmt.Fprintf(stdout, "%-6s %8d  %s\n", kind, pi.Count, pi.Path)
		}
		return nil
	case "transform":
		limit := 4
		if len(rest) > 1 {
			return fmt.Errorf("transform takes at most one limit")
		}
		if len(rest) == 1 {
			n, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("transform: limit %q is not an integer", rest[0])
			}
			limit = n
		}
		return db.DumpTransform(stdout, limit)
	case "search":
		if len(rest) == 0 {
			return fmt.Errorf("search needs at least one term")
		}
		sets, err := db.Locate(ctx, nil, rest...)
		if err != nil {
			return err
		}
		for i, term := range rest {
			fmt.Fprintf(stdout, "%q: %d hit(s)\n", term, len(sets[i]))
			for _, n := range sets[i] {
				fmt.Fprintf(stdout, "  node %-6d %-55s %q\n", n, db.Path(n), db.Value(n))
			}
		}
		return nil
	case "meet":
		if len(rest) < 1 {
			return fmt.Errorf("meet needs at least one term")
		}
		if mf.stream {
			return streamMeet(ctx, db, rest, mf, stdout)
		}
		res, err := db.Run(ctx, ncq.Request{Terms: rest, Options: ncq.NewOptions(mf.opts)})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d nearest concept(s), %d unmatched input(s)\n", len(res.Meets), res.Unmatched)
		for _, m := range res.Meets {
			printMeet(stdout, db, m, mf)
		}
		return nil
	case "query":
		if len(rest) != 1 {
			return fmt.Errorf("query needs exactly one SQL argument")
		}
		ans, err := db.Query(rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, ans.XML())
		return nil
	case "repl":
		repl(ctx, db, mf, stdin, stdout)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printMeet renders one nearest concept in the meet command's format.
func printMeet(stdout io.Writer, db *ncq.Database, m ncq.CorpusMeet, mf meetFlags) {
	fmt.Fprintf(stdout, "  <%s> node %d  distance %d  witnesses %v  (%s)\n",
		m.Tag, m.Node, m.Distance, m.Witnesses, m.Path)
	if mf.show && db != nil {
		if xml, err := db.Subtree(m.Node); err == nil {
			fmt.Fprintf(stdout, "    %s\n", xml)
		}
	}
}

// streamMeet is the -stream form of the meet command: each nearest
// concept prints the moment the incrementally merged sequence yields
// it, and the summary line — known complete only at the end — comes
// last.
func streamMeet(ctx context.Context, db *ncq.Database, terms []string, mf meetFlags, stdout io.Writer) error {
	seq, stats := db.ResultsWithStats(ctx, ncq.Request{Terms: terms, Options: ncq.NewOptions(mf.opts)})
	n := 0
	for m, err := range seq {
		if err != nil {
			return err
		}
		printMeet(stdout, db, m, mf)
		n++
	}
	fmt.Fprintf(stdout, "%d nearest concept(s), %d unmatched input(s)\n", n, stats.Unmatched)
	return nil
}

// remoteMeet runs the meet against a running ncqd. With -stream it
// consumes the NDJSON endpoint, printing each meet line as it arrives;
// otherwise it issues a plain v2 query and prints the envelope's
// answer.
func remoteMeet(ctx context.Context, base string, terms []string, mf meetFlags, stdout io.Writer) error {
	body, err := json.Marshal(wire.Query{Request: ncq.Request{Terms: terms}, OptionSpec: mf.opts})
	if err != nil {
		return err
	}
	url := strings.TrimRight(base, "/") + "/v2/query"
	if mf.stream {
		url += "?stream=1"
	}
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: %s (%s)", wire.ReadError(resp.Body), resp.Status)
	}
	if mf.stream {
		return printNDJSON(resp.Body, stdout)
	}
	// The corpus-wide result carries no unmatched count; only the
	// streaming trailer does.
	var envelope wire.Response
	var result wire.Result
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if err := json.Unmarshal(envelope.Result, &result); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	fmt.Fprintf(stdout, "%d nearest concept(s)\n", len(result.Meets))
	for _, m := range result.Meets {
		printRemoteMeet(stdout, m)
	}
	return nil
}

// printNDJSON consumes one NDJSON stream: meets print as their lines
// arrive, the trailer becomes the summary, an error line becomes the
// command's error. A stream that ends without a trailer was cut short
// — the printed meets are a prefix, not the answer — and fails.
func printNDJSON(r io.Reader, stdout io.Writer) error {
	sc := wire.NewLineScanner(r)
	n := 0
	for {
		line, err := sc.Next()
		switch {
		case err == io.EOF:
			return fmt.Errorf("stream ended without a trailer after %d meet(s); the answer is incomplete", n)
		case err != nil:
			return err
		case line.Error != "":
			return fmt.Errorf("server: %s", line.Error)
		case line.Trailer:
			fmt.Fprintf(stdout, "%d nearest concept(s), %d unmatched input(s), %.1f ms\n",
				n, line.Unmatched, line.TookMS)
			return nil
		case line.Meet != nil:
			printRemoteMeet(stdout, *line.Meet)
			n++
		}
	}
}

// printRemoteMeet renders one meet of a remote answer; node IDs are
// only meaningful together with their source (and shard).
func printRemoteMeet(stdout io.Writer, m ncq.CorpusMeet) {
	origin := m.Source
	if m.Shard > 0 {
		origin = fmt.Sprintf("%s/shard%d", m.Source, m.Shard)
	}
	if origin == "" {
		origin = "corpus"
	}
	fmt.Fprintf(stdout, "  <%s> %s node %d  distance %d  witnesses %v  (%s)\n",
		m.Tag, origin, m.Node, m.Distance, m.Witnesses, m.Path)
}

// repl reads commands from stdin: `search …`, `meet …`, `show N`,
// `explain N` (after a meet), bare SELECT queries, and `quit`.
func repl(ctx context.Context, db *ncq.Database, mf meetFlags, stdin io.Reader, stdout io.Writer) {
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastMeets []ncq.CorpusMeet
	fmt.Fprintln(stdout, "ncq interactive session — try: meet Bit 1999   (quit to exit)")
	for {
		fmt.Fprint(stdout, "ncq> ")
		if !sc.Scan() {
			fmt.Fprintln(stdout)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToLower(fields[0]) {
		case "quit", "exit":
			return
		case "stats":
			st := db.Stats()
			fmt.Fprintf(stdout, "nodes %d, paths %d, associations %d\n",
				st.Nodes, st.Paths, st.Associations)
		case "search":
			sets, err := db.Locate(ctx, nil, fields[1:]...)
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
				continue
			}
			for i, term := range fields[1:] {
				fmt.Fprintf(stdout, "%q: %d hit(s)\n", term, len(sets[i]))
				for j, n := range sets[i] {
					if j >= 10 {
						fmt.Fprintln(stdout, "  …")
						break
					}
					fmt.Fprintf(stdout, "  node %-6d %q\n", n, db.Value(n))
				}
			}
		case "meet":
			if len(fields) < 2 {
				fmt.Fprintln(stdout, "meet needs at least one term")
				continue
			}
			res, err := db.Run(ctx, ncq.Request{Terms: fields[1:], Options: ncq.NewOptions(mf.opts)})
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
				continue
			}
			lastMeets = res.Meets
			fmt.Fprintf(stdout, "%d concept(s), %d unmatched\n", len(res.Meets), res.Unmatched)
			for i, m := range res.Meets {
				if i >= 10 {
					fmt.Fprintln(stdout, "  …")
					break
				}
				fmt.Fprintf(stdout, "  [%d] <%s> node %d distance %d\n", i, m.Tag, m.Node, m.Distance)
			}
		case "show", "explain":
			if len(fields) != 2 {
				fmt.Fprintln(stdout, "usage: show N | explain N  (after a meet)")
				continue
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx < 0 || idx >= len(lastMeets) {
				fmt.Fprintln(stdout, "no such result; run meet first")
				continue
			}
			if strings.EqualFold(fields[0], "show") {
				xml, err := db.Subtree(lastMeets[idx].Node)
				if err != nil {
					fmt.Fprintln(stdout, "error:", err)
					continue
				}
				fmt.Fprintln(stdout, xml)
				continue
			}
			text, err := db.Explain(lastMeets[idx].Meet)
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
				continue
			}
			fmt.Fprint(stdout, text)
		default:
			if strings.EqualFold(fields[0], "select") {
				ans, err := db.Query(line)
				if err != nil {
					fmt.Fprintln(stdout, "error:", err)
					continue
				}
				fmt.Fprintln(stdout, ans.XML())
				continue
			}
			fmt.Fprintln(stdout, "commands: stats, search T…, meet T…, show N, explain N, SELECT …, quit")
		}
	}
}
