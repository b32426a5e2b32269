// Package ncq is a Go implementation of nearest concept queries over
// XML documents — a reproduction of A. Schmidt, M. Kersten and
// M. Windhouwer, "Querying XML Documents Made Easy: Nearest Concept
// Queries", ICDE 2001.
//
// The library lets applications query XML documents whose content they
// know but whose mark-up they do not: full-text search locates strings,
// and the meet operator returns the lowest common ancestors of the hits
// — the "nearest concepts" that relate them. The result type is not
// specified in the query; it emerges from the database instance.
//
// # Quick start
//
//	db, err := ncq.OpenString(`<bib><book><author>Bit</author>` +
//	    `<year>1999</year></book></bib>`)
//	if err != nil { ... }
//	res, err := db.Run(ctx, ncq.Request{Terms: []string{"Bit", "1999"}})
//	// res.Meets[0].Tag == "book": Bit published something in 1999.
//
// Run is the one-call form: ranked, pageable, cancellable. The paper's
// own two stages — a full-text search per term, then the meet of the
// hits, in document order — are Locate and MeetOf:
//
//	sets, err := db.Locate(ctx, nil, "Bit", "1999")
//	meets, unmatched, err := db.MeetOf(ctx, nil, sets...)
//
// Underneath, documents are shredded into the path-partitioned binary
// relations of the Monet XML storage scheme; the meet algorithms of the
// paper's Figures 3-5 run directly on those relations.
//
// At scale, the unified Querier surface (Run, Results over a Database
// or a multi-document Corpus) executes every request — raw terms or the
// paper's query language — as an incrementally merged, globally ranked
// sequence: with Results (range-over-func) the first nearest concept
// reaches the caller as soon as every corpus member has produced its
// locally best answer, and abandoning the range abandons the rest of
// the work.
package ncq

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/fulltext"
	"ncq/internal/meetline"
	"ncq/internal/memo"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
	"ncq/internal/query"
	"ncq/internal/xmltree"
)

// NodeID identifies a node of a loaded document. IDs are assigned in
// depth-first document order starting at 1; 0 is never a valid node.
type NodeID = bat.OID

// Database is a loaded XML document ready for nearest concept queries.
type Database struct {
	store  *monetx.Store
	index  *fulltext.Index
	engine *query.Engine

	// plans memoizes the member's term-request plans by path shape
	// (plan.go); it goes away with the member.
	plans *memo.Memo[planKey, *memberPlan]

	// infixes holds, per path, the part of a meet's stream line the
	// path fixes (meetline.AppendInfix); paths never change once loaded.
	infixes [][]byte
}

// Open parses an XML document from r and loads it. No syntax tree is
// built: the parser's events go straight into the store's columns.
func Open(r io.Reader) (*Database, error) {
	dbs, err := openParts(r, nil)
	if err != nil {
		return nil, err
	}
	return dbs[0], nil
}

// openParts parses r into one database per part cut decides on (one in
// all when cut is nil), shredding as it parses.
func openParts(r io.Reader, cut func(span int64) bool) ([]*Database, error) {
	var dbs []*Database
	l := loaderInto(&dbs)
	if err := parseInto(r, cut, l, l); err != nil {
		return nil, err
	}
	return dbs, nil
}

// parseInto parses r, in the parts cut decides on, into sink: l, or a
// sink that feeds l. A refused parse aborts l.
func parseInto(r io.Reader, cut func(span int64) bool, sink xmltree.Sink, l *monetx.Loader) error {
	if err := xmltree.ParseSplit(r, cut, sink); err != nil {
		l.Abort()
		return fmt.Errorf("ncq: %w", err)
	}
	return nil
}

// loaderInto is the sink that shreds every document it is fed, builds
// its index beside the parse and appends its database to dbs. A caller
// whose parse fails aborts it, which waits for the part's index builder.
func loaderInto(dbs *[]*Database) *monetx.Loader {
	return fulltext.NewLoader(func(idx *fulltext.Index) error {
		*dbs = append(*dbs, newDatabase(idx))
		return nil
	})
}

// ParseDocument parses an XML document from r without loading it into
// a database — the form Corpus.AddSharded consumes.
func ParseDocument(r io.Reader) (*xmltree.Document, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("ncq: %w", err)
	}
	return doc, nil
}

// OpenString is Open on a string.
func OpenString(s string) (*Database, error) {
	return Open(strings.NewReader(s))
}

// newDatabase serves an index and the shredded store it was built over;
// the parsed tree is not kept.
func newDatabase(idx *fulltext.Index) *Database {
	store := idx.Store()
	sum := store.Summary()
	infixes := make([][]byte, sum.Len())
	for p := range pathsum.PathID(len(infixes)) {
		infixes[p] = meetline.AppendInfix(nil, sum.Label(p), sum.String(p))
	}
	return &Database{store: store, index: idx, engine: query.NewEngine(store, idx), plans: newPlanMemo(sum), infixes: infixes}
}

// Len returns the number of nodes (elements plus character data).
func (db *Database) Len() int { return db.store.Len() }

// Root returns the NodeID of the document root.
func (db *Database) Root() NodeID { return db.store.Root() }

// Tag returns the element label of n ("cdata" for character data).
func (db *Database) Tag(n NodeID) string { return db.store.Label(n) }

// Path returns the full label path of n, e.g. "/bib/book/year".
func (db *Database) Path(n NodeID) string { return db.store.PathString(n) }

// Parent returns the parent of n, or 0 for the root.
func (db *Database) Parent(n NodeID) NodeID { return db.store.Parent(n) }

// Children returns the children of n in document order.
func (db *Database) Children(n NodeID) []NodeID { return db.store.Children(n) }

// Value returns the character data of n: its text if n is a cdata
// node, otherwise the concatenated direct cdata children. The string is
// the caller's own: a store's values are substrings of one string, and
// one kept would keep them all.
func (db *Database) Value(n NodeID) string { return strings.Clone(db.engine.Value(n)) }

// Attr returns the value of the named attribute of element n, a string
// of its own as Value's is.
func (db *Database) Attr(n NodeID, name string) (string, bool) {
	v, ok := db.store.AttrValue(n, name)
	return strings.Clone(v), ok
}

// Before reports whether a starts before b in document order.
func (db *Database) Before(a, b NodeID) bool { return db.store.DocBefore(a, b) }

// NextSibling returns the sibling immediately following n, or 0.
func (db *Database) NextSibling(n NodeID) NodeID { return db.store.NextSibling(n) }

// PrevSibling returns the sibling immediately preceding n, or 0.
func (db *Database) PrevSibling(n NodeID) NodeID { return db.store.PrevSibling(n) }

// Subtree renders the subtree rooted at element n as an XML string —
// the "starting point for displaying and browsing" of Section 4 of the
// paper — straight from the columns, with no tree built.
func (db *Database) Subtree(n NodeID) (string, error) {
	var sb strings.Builder
	if err := db.store.Emit(n, xmltree.NewWriter(&sb, false)); err != nil {
		return "", fmt.Errorf("ncq: %w", err)
	}
	return sb.String(), nil
}

// Meet is one nearest concept: the lowest common ancestor of its
// witnesses.
type Meet struct {
	Node      NodeID   `json:"node"`
	Tag       string   `json:"tag"`       // the concept's element label — the paper's result type
	Path      string   `json:"path"`      // its full path
	Witnesses []NodeID `json:"witnesses"` // the inputs this concept connects, ascending
	Distance  int      `json:"distance"`  // total parent joins spent; the ranking key

	// Projected carries the text a query-language request projects with
	// VALUE(v) or XML(v); nil for every other request, and one pointer
	// so that the meets of those pay one word for it.
	Projected *Projection `json:"projected,omitempty"`
}

// Projection is the text a query-language select list asked for beside
// the node itself.
type Projection struct {
	Value string `json:"value,omitempty"` // VALUE(v): the node's character data
	XML   string `json:"xml,omitempty"`   // XML(v): the serialised subtree
}

// Options tunes the meet operator (the Section 4 extensions of the
// paper). The zero value, like nil, is the plain operator. Use the helper
// functions (ExcludeRoot, ExcludePattern, ...) to build one fluently, or
// NewOptions to build one from its spec.
type Options struct {
	spec OptionSpec
}

// ExcludeRoot discards meets at the document root — almost always
// wanted on large databases (used in the paper's DBLP case study).
func ExcludeRoot() *Options { return (&Options{}).ExcludeRoot() }

// ExcludeRoot marks the document root as an inadmissible result type.
func (o *Options) ExcludeRoot() *Options {
	o.spec.ExcludeRoot = true
	return o
}

// ExcludePattern marks every path matching the pattern (pathexpr
// syntax, e.g. "//article") as inadmissible.
func ExcludePattern(pattern string) *Options { return (&Options{}).ExcludePattern(pattern) }

// ExcludePattern adds an inadmissible path pattern.
func (o *Options) ExcludePattern(pattern string) *Options {
	o.spec.Exclude = append(o.spec.Exclude, pattern)
	return o
}

// Nearest switches exclusion to "find the nearest admissible concept":
// inadmissible meets do not swallow their witnesses, the search
// continues upward (an extension beyond the paper).
func (o *Options) Nearest() *Options {
	o.spec.Nearest = true
	return o
}

// Restrict keeps only meets whose path matches the pattern; matches at
// other paths climb until they reach an admissible node. This is how
// "by restricting the result types, the operator can be used to
// implement keyword search as a special case" (Section 6 of the
// paper): restricting to "//inproceedings" turns the meet into keyword
// search over bibliography records.
func Restrict(pattern string) *Options { return (&Options{}).Restrict(pattern) }

// Restrict adds an admissible result-path pattern.
func (o *Options) Restrict(pattern string) *Options {
	o.spec.Restrict = append(o.spec.Restrict, pattern)
	return o
}

// Within keeps only meets whose two closest witnesses are at most d
// edges apart — the paper's distance-restricted meet.
func Within(d int) *Options { return (&Options{}).Within(d) }

// Within sets the pairwise distance bound.
func (o *Options) Within(d int) *Options {
	o.spec.Within = d
	return o
}

// MaxLift bounds how many parent steps any single input may take.
func (o *Options) MaxLift(n int) *Options {
	o.spec.MaxLift = n
	return o
}

// OptionSpec is Options as plain data, one field per fluent call, under
// the names the POST /v2/query body gives them: internal/wire's query
// is a Request plus its OptionSpec, so a request and its options travel
// in one schema. A zero field is an option not set.
type OptionSpec struct {
	ExcludeRoot bool     `json:"exclude_root,omitempty"`
	Exclude     []string `json:"exclude,omitempty"`
	Restrict    []string `json:"restrict,omitempty"`
	Nearest     bool     `json:"nearest,omitempty"`
	Within      int      `json:"within,omitempty"`
	MaxLift     int      `json:"max_lift,omitempty"`
}

// NewOptions returns the Options s spells, sharing its pattern slices;
// nil for the zero spec, which sets nothing.
func NewOptions(s OptionSpec) *Options {
	o := &Options{spec: s}
	if !o.set() {
		return nil
	}
	return o
}

// Spec returns what the fluent calls recorded; the zero OptionSpec for
// a nil receiver.
func (o *Options) Spec() OptionSpec {
	if o == nil {
		return OptionSpec{}
	}
	return o.spec
}

// set reports whether o asks for anything: nil and Options that set
// nothing are the same plain operator, with the same cache key and
// cursors.
func (o *Options) set() bool {
	if o == nil {
		return false
	}
	s := &o.spec
	return s.ExcludeRoot || s.Nearest || len(s.Exclude) > 0 || len(s.Restrict) > 0 || s.Within != 0 || s.MaxLift != 0
}

// Locate is the full-text half of the paper's interaction: one input
// set per term, the ascending nodes whose strings contain the term as a
// case-sensitive substring — the paper's `contains`. A non-nil
// thesaurus only widens a term with a synonym class, to the nodes
// containing the term or any entry of its class as written
// (Thesaurus.Expand); a term with none locates exactly as without it.
// These are the sets a term request meets, and MeetOf takes. Locate
// reads t while it runs, so do not Add to t concurrently.
func (db *Database) Locate(ctx context.Context, t *Thesaurus, terms ...string) ([][]NodeID, error) {
	var classes [][]string
	if t != nil {
		classes = expand(t.t, terms)
	}
	return db.locate(ctx, terms, classes)
}

// MeetOf computes the nearest concepts of the input sets (the general
// meet of the paper's Figure 5); over Locate's sets it answers "what
// connects 'Bit' and '1999'?" without any schema knowledge. A node in
// two sets is its own nearest concept at distance zero (the paper's
// "Bob"/"Byte" example); a single set meets its nodes among themselves.
// The meets come in document order (a rolled-up meet before the
// self-meet on the same node), plus the inputs that found no partner.
// Run executes the same meet ranked, paged and streamed. ctx is polled
// every 4,096 distinct inputs, so it interrupts even one huge meet.
func (db *Database) MeetOf(ctx context.Context, opt *Options, sets ...[]NodeID) ([]Meet, []NodeID, error) {
	sh, err := opt.shape(nil)
	if err != nil {
		return nil, nil, err
	}
	copt, _ := opt.compile(db, sh, nil)
	results, unmatched, err := core.MeetMultiContext(ctx, db.store, sets, copt)
	if err != nil {
		return nil, nil, fmt.Errorf("ncq: %w", err)
	}
	return db.wrapResults(results), unmatched, nil
}

// Meet2 returns the nearest concept of exactly two nodes together with
// their distance in edges (the pairwise meet of Figure 3).
func (db *Database) Meet2(a, b NodeID) (Meet, error) {
	m, joins, err := core.Meet2(db.store, a, b)
	if err != nil {
		return Meet{}, fmt.Errorf("ncq: %w", err)
	}
	return Meet{
		Node:      m,
		Tag:       db.store.Label(m),
		Path:      db.store.PathString(m),
		Witnesses: []NodeID{a, b},
		Distance:  joins,
	}, nil
}

// Dist returns the number of edges between two nodes.
func (db *Database) Dist(a, b NodeID) (int, error) {
	d, err := core.Dist(db.store, a, b)
	if err != nil {
		return 0, fmt.Errorf("ncq: %w", err)
	}
	return d, nil
}

// renderMeet builds the public Meet of one core result — the one
// place a Meet is rendered, for the eager wrapResults and for a member
// stream's pop alike. Tag and Path are the summary's own strings.
func (db *Database) renderMeet(r core.Result) Meet {
	return Meet{
		Node:      r.Meet,
		Tag:       db.store.Label(r.Meet),
		Path:      db.store.PathString(r.Meet),
		Witnesses: r.Witnesses,
		Distance:  r.Distance,
	}
}

func (db *Database) wrapResults(results []core.Result) []Meet {
	out := make([]Meet, len(results))
	for i, r := range results {
		out[i] = db.renderMeet(r)
	}
	return out
}

// Answer re-exports the query engine's answer type.
type Answer = query.Answer

// Query evaluates a query in the paper's SQL variant, e.g.
//
//	SELECT meet(e1, e2)
//	FROM //cdata AS e1, //cdata AS e2
//	WHERE e1 CONTAINS 'Bit' AND e2 CONTAINS '1999'
//
// and returns the paper's answer set: rows in document order, or by
// distance when the meet is RANKED. Run with Request.Query executes the
// same query through the request pipeline — ranked, paged, cancellable.
func (db *Database) Query(src string) (*Answer, error) {
	return db.engine.Query(src)
}

// Stats summarises the loaded store.
type Stats struct {
	Nodes        int `json:"nodes"`        // tree nodes
	Paths        int `json:"paths"`        // distinct paths (relations in the catalogue)
	Associations int `json:"associations"` // stored binary associations
	MemBytes     int `json:"mem_bytes"`    // estimated column memory
}

// Stats reports storage statistics. They were computed when the store
// was loaded, so the call is free.
func (db *Database) Stats() Stats {
	st := db.store.Stats()
	return Stats{
		Nodes:        st.Nodes,
		Paths:        st.Paths,
		Associations: st.Associations,
		MemBytes:     st.MemBytes,
	}
}

// WriteXML serialises the loaded document back to XML from the store's
// columns: the Monet transform is lossless.
func (db *Database) WriteXML(w io.Writer, indent bool) error {
	if err := db.store.Emit(db.store.Root(), xmltree.NewWriter(w, indent)); err != nil {
		return fmt.Errorf("ncq: %w", err)
	}
	return nil
}

// PathInfo describes one relation of the storage catalogue.
type PathInfo = monetx.PathInfo

// Paths lists the storage catalogue: every path with its association
// count — the schema a nearest-concept user never has to know, made
// inspectable.
func (db *Database) Paths() []PathInfo { return db.store.PathInfos() }

// DumpTransform writes the path-partitioned storage representation in
// the style of the paper's Figure 2, truncating each relation to limit
// pairs when limit > 0.
func (db *Database) DumpTransform(w io.Writer, limit int) error {
	return db.store.DumpTransform(w, limit)
}
