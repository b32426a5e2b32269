// Command docscheck keeps the operator documentation honest. It fails
// (exit 1, one line per violation) when:
//
//   - a relative Markdown link anywhere in the repo points at a file
//     that does not exist,
//   - an ncqd flag defined in cmd/ncqd/main.go is not documented in
//     docs/OPERATIONS.md, or a flag row of its tables names a flag
//     cmd/ncqd no longer defines, or
//   - an ncq_* metric name registered in non-test Go source is not
//     documented in docs/OPERATIONS.md, or
//   - an ncqvet analyzer registered under scripts/ncqvet/passes is not
//     documented in docs/ARCHITECTURE.md's "Enforced invariants", or
//   - a Go comment outside bench/ names a Markdown file that exists
//     neither at that path from the repository root nor under docs/.
//
// Run it from the repository root: go run ./scripts/docscheck
// CI's docs job does exactly that, so documentation drift is a build
// failure, not a review nit.
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	opsPath  = "docs/OPERATIONS.md"
	archPath = "docs/ARCHITECTURE.md"
)

var (
	// [text](target) — inline Markdown links. Reference-style links
	// are not used in this repo.
	linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// fs.String("addr", ...) and friends in cmd/ncqd/main.go.
	flagRe = regexp.MustCompile(`fs\.(?:String|Bool|Int|Int64|Uint|Float64|Duration)\("([a-z][a-z0-9-]*)"`)
	// | `-addr` | ... — a flag row of an OPERATIONS.md table.
	flagRowRe = regexp.MustCompile("(?m)^\\| `-([a-z][a-z0-9-]*)` \\|")
	// "ncq_..." string literals: the metric names handed to the
	// registry constructors.
	metricRe = regexp.MustCompile(`"(ncq_[a-z0-9_]+)"`)
	// Name: "maporder" — the analyzer registrations in
	// scripts/ncqvet/passes/*/*.go.
	analyzerRe = regexp.MustCompile(`Name:\s*"([a-z][a-z0-9]*)"`)
	// ARCHITECTURE.md, docs/OPERATIONS.md, bench/README.md — a
	// Markdown file named in prose. The leading group keeps the tail
	// of a URL or of a longer word from matching.
	citeRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./:-])([A-Za-z0-9_][A-Za-z0-9_./-]*\.md)\b`)
)

func main() {
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	ops, err := os.ReadFile(opsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v (run from the repository root)\n", err)
		os.Exit(1)
	}
	opsText := string(ops)

	arch, err := os.ReadFile(archPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v (run from the repository root)\n", err)
		os.Exit(1)
	}

	checkLinks(report)
	checkFlags(opsText, report)
	checkMetrics(opsText, report)
	checkAnalyzers(string(arch), report)
	checkCitations(report)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkLinks verifies that every relative link in every Markdown file
// resolves to an existing file or directory.
func checkLinks(report func(string, ...any)) {
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			report("%s: %v", path, err)
			return nil
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				report("%s: broken link %q (%s does not exist)", path, m[1], resolved)
			}
		}
		return nil
	})
}

// checkFlags verifies that every flag ncqd defines appears, backticked
// with its dash (`-addr`), in OPERATIONS.md, and that every flag row
// there names a flag ncqd defines.
func checkFlags(opsText string, report func(string, ...any)) {
	src, err := os.ReadFile("cmd/ncqd/main.go")
	if err != nil {
		report("cmd/ncqd/main.go: %v", err)
		return
	}
	matches := flagRe.FindAllStringSubmatch(string(src), -1)
	if len(matches) == 0 {
		report("cmd/ncqd/main.go: no flag definitions found — did the flag idiom change?")
		return
	}
	defined := map[string]bool{}
	for _, m := range dedup(matches) {
		defined[m] = true
		if !strings.Contains(opsText, "`-"+m+"`") {
			report("%s: ncqd flag -%s is not documented", opsPath, m)
		}
	}
	for _, m := range dedup(flagRowRe.FindAllStringSubmatch(opsText, -1)) {
		if !defined[m] {
			report("%s: documents flag -%s, which cmd/ncqd/main.go does not define", opsPath, m)
		}
	}
}

// checkMetrics verifies that every ncq_* metric name in non-test Go
// source appears in OPERATIONS.md.
func checkMetrics(opsText string, report func(string, ...any)) {
	var names []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			report("%s: %v", path, err)
			return nil
		}
		for _, m := range metricRe.FindAllStringSubmatch(string(body), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if len(names) == 0 {
		report("no ncq_* metric names found in Go source — did the registry idiom change?")
		return
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if !strings.Contains(opsText, "`"+n+"`") {
			report("%s: metric %s is not documented", opsPath, n)
		}
	}
}

// checkAnalyzers verifies that every ncqvet analyzer (the Name field
// of each registration under scripts/ncqvet/passes) appears,
// backticked, in ARCHITECTURE.md — the linter's contract is only as
// discoverable as its documentation.
func checkAnalyzers(archText string, report func(string, ...any)) {
	var names []string
	_ = filepath.WalkDir("scripts/ncqvet/passes", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			report("%s: %v", path, err)
			return nil
		}
		for _, m := range analyzerRe.FindAllStringSubmatch(string(body), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if len(names) == 0 {
		report("no analyzer registrations found under scripts/ncqvet/passes — did the Name idiom change?")
		return
	}
	sort.Strings(names)
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if !strings.Contains(archText, "`"+n+"`") {
			report("%s: ncqvet analyzer %s is not documented", archPath, n)
		}
	}
}

// checkCitations verifies that every Markdown file a Go comment names
// exists, as written from the repository root or under docs/ (comments
// say "ARCHITECTURE.md" as often as "docs/ARCHITECTURE.md"). bench/ is
// its own module with its own documents and is not scanned.
func checkCitations(report func(string, ...any)) {
	cited := 0
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == "bench" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			report("%s: %v", path, err)
			return nil
		}
		fset := token.NewFileSet()
		var sc scanner.Scanner
		sc.Init(fset.AddFile(path, fset.Base(), len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			for _, m := range citeRe.FindAllStringSubmatch(lit, -1) {
				cited++
				if !exists(m[1]) && !exists(filepath.Join("docs", m[1])) {
					report("%s: comment cites %s, which exists neither at the repository root nor under docs/", fset.Position(pos), m[1])
				}
			}
		}
		return nil
	})
	if cited == 0 {
		report("no Markdown file is cited in any Go comment — did the citation idiom change?")
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func dedup(matches [][]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range matches {
		if !seen[m[1]] {
			seen[m[1]] = true
			out = append(out, m[1])
		}
	}
	sort.Strings(out)
	return out
}
