package query

import (
	"context"
	"sort"
	"strings"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/pathexpr"
	"ncq/internal/pathsum"
	"ncq/internal/xmltree"
)

// Engine evaluates queries against a loaded store and its full-text
// index.
type Engine struct {
	store *monetx.Store
	idx   *fulltext.Index
}

// NewEngine wires a store with its full-text index.
func NewEngine(store *monetx.Store, idx *fulltext.Index) *Engine {
	return &Engine{store: store, idx: idx}
}

// Row is one result row of a query.
type Row struct {
	OID       bat.OID
	Tag       string
	Path      string
	Value     string    // projected value (VALUE(v)) or empty
	XML       string    // projected subtree (XML(v)) or empty
	Witnesses []bat.OID // meet queries only
	Distance  int       // meet queries only
}

// Answer is a complete query result.
type Answer struct {
	Columns   []string // projected column names, in select-list order
	IsMeet    bool
	Rows      []Row
	Unmatched []bat.OID // meet queries: inputs that found no partner
}

// Query parses and evaluates src.
func (e *Engine) Query(src string) (*Answer, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}

// Lowered is a parsed query compiled against one store: the inputs of
// the meet roll-up, or the nodes a projection lists — what a term
// request is once its terms are located, so package ncq's pipeline
// executes both alike; Eval renders the same inputs as an answer set.
type Lowered struct {
	// Sets holds, for a meet(...) query, one ascending input set per
	// variable — a node bound by two variables meets at itself (the
	// "Bob"/"Byte" example of Section 3.1), everything else goes through
	// the general roll-up of Figure 5 — and Opt the meet options; both go
	// to core.MeetMultiContext as they are. Opt is nil for a projection.
	Sets [][]bat.OID
	Opt  *core.Options

	// Nodes holds, for a projection, the bound nodes in document order.
	Nodes []bat.OID
}

// filterPoll is how many nodes of a binding a WHERE conjunct filters
// between two looks at the context.
const filterPoll = 4096

// Lower binds q's variables against the engine's store and filters
// them by the WHERE clause. ctx is checked per bound variable, per
// conjunct and every filterPoll filtered nodes, so a deadline
// interrupts the lowering of one huge document mid-way.
func (e *Engine) Lower(ctx context.Context, q *Query) (*Lowered, error) {
	bindings := make(map[string][]bat.OID, len(q.binds))
	for _, b := range q.binds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bindings[b.v] = e.bind(b.pattern)
	}
	for i := range q.conds {
		vs := map[string]bool{}
		q.conds[i].vars(vs)
		for v := range vs { // exactly one, enforced by checkVars
			filtered, err := e.applyExpr(ctx, bindings[v], &q.conds[i])
			if err != nil {
				return nil, err
			}
			bindings[v] = filtered
		}
	}
	if q.meet == nil {
		// checkVars guarantees all items share one variable.
		return &Lowered{Nodes: bindings[q.projs[0].v]}, nil
	}
	m := q.meet
	low := &Lowered{Sets: make([][]bat.OID, 0, len(m.vars)), Opt: &core.Options{
		MaxDistance:  m.within,
		MaxLift:      m.maxLift,
		SkipExcluded: m.nearest,
	}}
	for _, v := range m.vars {
		low.Sets = append(low.Sets, bindings[v])
	}
	if len(m.exclude) > 0 {
		low.Opt.Exclude = map[pathsum.PathID]bool{}
		for _, pat := range m.exclude {
			for _, pid := range pat.SelectPaths(e.store.Summary()) {
				low.Opt.Exclude[pid] = true
			}
		}
	}
	return low, nil
}

// Eval evaluates a parsed query against the one document of the engine
// and assembles the paper's answer set: rows in document order, or by
// distance under RANKED. It is the single-document evaluator
// (ncq.Database.Query, the CLI, the examples) and the reference the
// request pipeline is tested against; all it owns is the rows.
func (e *Engine) Eval(q *Query) (*Answer, error) {
	ctx := context.Background() //lint:ncqvet-ignore the single-document evaluator has no caller deadline (its two-result signature is what bench/ compiles against); deadline-aware callers Lower and stream
	low, err := e.Lower(ctx, q)
	if err != nil {
		return nil, err
	}
	if low.Opt == nil {
		return e.projection(q.projs, low.Nodes), nil
	}
	results, unmatched, err := core.MeetMultiContext(ctx, e.store, low.Sets, low.Opt)
	if err != nil {
		return nil, &Error{Pos: q.meet.pos, Msg: err.Error()}
	}
	if q.meet.ranked {
		// The Section 4 ranking heuristic: fewest joins first.
		core.Rank(results)
	}
	ans := &Answer{Columns: []string{"meet"}, IsMeet: true, Unmatched: unmatched}
	for _, r := range results {
		ans.Rows = append(ans.Rows, Row{
			OID:       r.Meet,
			Tag:       e.store.Label(r.Meet),
			Path:      e.store.PathString(r.Meet),
			Witnesses: r.Witnesses,
			Distance:  r.Distance,
		})
	}
	return ans, nil
}

// bind returns the OIDs matching a pattern, ascending. Attribute
// patterns bind the owning element nodes.
func (e *Engine) bind(pat *pathexpr.Pattern) []bat.OID {
	sum := e.store.Summary()
	var out []bat.OID
	for _, pid := range pat.SelectPaths(sum) {
		owner := pid
		if sum.Kind(pid) == pathsum.Attr {
			owner = sum.Parent(pid)
		}
		out = append(out, e.store.OIDsAt(owner)...)
	}
	return bat.SortDedup(out)
}

// applyExpr filters a binding with one boolean predicate expression.
// Contains-hit owner lists are fetched once per distinct argument.
func (e *Engine) applyExpr(ctx context.Context, oids []bat.OID, expr *condExpr) ([]bat.OID, error) {
	hitCache := map[string][]bat.OID{}
	var out []bat.OID
	for i, o := range oids {
		if i%filterPoll == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ok, err := e.evalExpr(o, expr, hitCache)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, o)
		}
	}
	return out, nil
}

func (e *Engine) evalExpr(o bat.OID, expr *condExpr, hitCache map[string][]bat.OID) (bool, error) {
	switch expr.op {
	case opLeaf:
		return e.evalLeaf(o, expr.leaf, hitCache)
	case opNot:
		ok, err := e.evalExpr(o, &expr.kids[0], hitCache)
		return !ok, err
	case opAnd:
		for i := range expr.kids {
			ok, err := e.evalExpr(o, &expr.kids[i], hitCache)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case opOr:
		for i := range expr.kids {
			ok, err := e.evalExpr(o, &expr.kids[i], hitCache)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	return false, errf(expr.pos, "unknown condition operator")
}

func (e *Engine) evalLeaf(o bat.OID, c cond, hitCache map[string][]bat.OID) (bool, error) {
	switch c.kind {
	case condContains:
		owners, ok := hitCache[c.arg]
		if !ok {
			owners = e.idx.OwnersSubstring(c.arg) // ascending
			hitCache[c.arg] = owners
		}
		// A hit owner lies in o's subtree iff one falls into the
		// preorder interval [o, end(o)]; owners is sorted, so binary
		// search finds the first candidate — the paper's `contains`
		// predicate ("all nodes whose offspring contains as character
		// data the string").
		i := sort.Search(len(owners), func(i int) bool { return owners[i] >= o })
		return i < len(owners) && e.store.Contains(o, owners[i]), nil
	case condEquals:
		return e.Value(o) == c.arg, nil
	}
	return false, errf(c.pos, "unknown condition")
}

// Value renders a node's own character data — what VALUE(v) projects:
// the text itself for a cdata node, the concatenated direct cdata
// children for an element.
func (e *Engine) Value(o bat.OID) string {
	if t, ok := e.store.Text(o); ok {
		return t
	}
	var parts []string
	for _, c := range e.store.Children(o) {
		if t, ok := e.store.Text(c); ok {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " ")
}

// Projects reports which text columns q's select list asks for:
// VALUE(v) and XML(v). A meet query projects neither.
func (q *Query) Projects() (value, xml bool) {
	for _, it := range q.projs {
		value = value || it.kind == projValue
		xml = xml || it.kind == projXML
	}
	return value, xml
}

func (e *Engine) projection(projs []projItem, nodes []bat.OID) *Answer {
	ans := &Answer{}
	for _, it := range projs {
		ans.Columns = append(ans.Columns, it.kind.String())
	}
	for _, o := range nodes {
		row := Row{
			OID:  o,
			Tag:  e.store.Label(o),
			Path: e.store.PathString(o),
		}
		for _, it := range projs {
			// An answer may outlive the store: its texts are its own,
			// not views of the store's one string of values.
			switch it.kind {
			case projValue:
				row.Value = strings.Clone(e.Value(o))
			case projXML:
				row.XML = strings.Clone(e.XML(o))
			}
		}
		ans.Rows = append(ans.Rows, row)
	}
	return ans
}

// XML serialises the subtree below o — what XML(v) projects: the
// store's walk into the writer. cdata nodes render as their bare text.
func (e *Engine) XML(o bat.OID) string {
	if t, ok := e.store.Text(o); ok {
		return t
	}
	var sb strings.Builder
	if e.store.Emit(o, xmltree.NewWriter(&sb, false)) != nil {
		return ""
	}
	return sb.String()
}

// XML renders the answer in the paper's answer-set form:
//
//	<answer>
//	  <result> article </result>
//	  ...
//	</answer>
//
// Single-column answers print the projected value inside <result>;
// multi-column answers nest one element per column.
func (a *Answer) XML() string {
	var sb strings.Builder
	w := xmltree.NewWriter(&sb, false)
	var buf []byte
	text := func(parts ...string) { // each text, through one reused buffer
		buf = buf[:0]
		for _, p := range parts {
			buf = append(buf, p...)
		}
		w.Text(buf)
	}
	w.Start("answer", nil)
	for _, r := range a.Rows {
		text("\n  ")
		w.Start("result", nil)
		if len(a.Columns) <= 1 {
			text(" ", a.cell(r, firstColumn(a.Columns)), " ")
		} else {
			for _, col := range a.Columns {
				w.Start(col, nil)
				text(a.cell(r, col)) // an empty cell still closes as <col></col>
				w.End()
			}
		}
		w.End()
	}
	text("\n")
	w.End() // a strings.Builder never fails
	return sb.String()
}

func firstColumn(cols []string) string {
	if len(cols) == 0 {
		return "node"
	}
	return cols[0]
}

func (a *Answer) cell(r Row, col string) string {
	switch col {
	case "path":
		return r.Path
	case "value":
		return r.Value
	case "xml":
		return r.XML
	default: // node, tag, meet
		return r.Tag
	}
}

// Tags returns the tag column of all rows, convenient in tests and
// examples that compare against the paper's printed answers.
func (a *Answer) Tags() []string {
	out := make([]string, len(a.Rows))
	for i, r := range a.Rows {
		out[i] = r.Tag
	}
	return out
}
