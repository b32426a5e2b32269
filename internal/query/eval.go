package query

import (
	"sort"
	"strings"

	"ncq/internal/bat"
	"ncq/internal/core"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
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

// Eval evaluates a parsed query.
func (e *Engine) Eval(q *Query) (*Answer, error) {
	bindings := make(map[string][]bat.OID, len(q.binds))
	for _, b := range q.binds {
		bindings[b.v] = e.bind(b.pattern)
	}
	for i := range q.conds {
		vs := map[string]bool{}
		q.conds[i].vars(vs)
		for v := range vs { // exactly one, enforced by checkVars
			filtered, err := e.applyExpr(bindings[v], &q.conds[i])
			if err != nil {
				return nil, err
			}
			bindings[v] = filtered
		}
	}
	if q.meet != nil {
		return e.evalMeet(q.meet, bindings)
	}
	return e.evalProjection(q.projs, bindings)
}

// bind returns the OIDs matching a pattern. Attribute patterns bind
// the owning element nodes.
func (e *Engine) bind(pat interface {
	SelectPaths(*pathsum.Summary) []pathsum.PathID
}) []bat.OID {
	sum := e.store.Summary()
	set := bat.NewSet()
	for _, pid := range pat.SelectPaths(sum) {
		owner := pid
		if sum.Kind(pid) == pathsum.Attr {
			owner = sum.Parent(pid)
		}
		for _, o := range e.store.OIDsAt(owner) {
			set.Add(o)
		}
	}
	return set.Slice()
}

// applyExpr filters a binding with one boolean predicate expression.
// Contains-hit owner lists are fetched once per distinct argument.
func (e *Engine) applyExpr(oids []bat.OID, expr *condExpr) ([]bat.OID, error) {
	hitCache := map[string][]bat.OID{}
	var out []bat.OID
	for _, o := range oids {
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
		return e.valueOf(o) == c.arg, nil
	}
	return false, errf(c.pos, "unknown condition")
}

// valueOf renders a node's own character data: the text itself for a
// cdata node, the concatenated direct cdata children for an element.
func (e *Engine) valueOf(o bat.OID) string {
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

func (e *Engine) evalMeet(m *meetItem, bindings map[string][]bat.OID) (*Answer, error) {
	// Every variable contributes one input set; a node bound by two
	// different variables meets at itself (the "Bob"/"Byte" example of
	// Section 3.1), everything else goes through the general roll-up of
	// Figure 5, as the paper does for its reformulated example query.
	sets := make([][]bat.OID, 0, len(m.vars))
	for _, v := range m.vars {
		sets = append(sets, bindings[v])
	}
	opt := &core.Options{
		MaxDistance:  m.within,
		MaxLift:      m.maxLift,
		SkipExcluded: m.nearest,
	}
	if len(m.exclude) > 0 {
		opt.Exclude = map[pathsum.PathID]bool{}
		for _, pat := range m.exclude {
			for _, pid := range pat.SelectPaths(e.store.Summary()) {
				opt.Exclude[pid] = true
			}
		}
	}
	results, unmatched, err := core.MeetMulti(e.store, sets, opt)
	if err != nil {
		return nil, &Error{Pos: m.pos, Msg: err.Error()}
	}
	if m.ranked {
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

func (e *Engine) evalProjection(projs []projItem, bindings map[string][]bat.OID) (*Answer, error) {
	ans := &Answer{}
	for _, it := range projs {
		ans.Columns = append(ans.Columns, it.kind.String())
	}
	if len(projs) == 0 {
		return ans, nil
	}
	// checkVars guarantees all items share one variable.
	for _, o := range bindings[projs[0].v] {
		row := Row{
			OID:  o,
			Tag:  e.store.Label(o),
			Path: e.store.PathString(o),
		}
		for _, it := range projs {
			switch it.kind {
			case projValue:
				row.Value = e.valueOf(o)
			case projXML:
				row.XML = e.xmlOf(o)
			}
		}
		ans.Rows = append(ans.Rows, row)
	}
	return ans, nil
}

// xmlOf serialises the subtree below o; cdata nodes render as their
// bare text.
func (e *Engine) xmlOf(o bat.OID) string {
	if t, ok := e.store.Text(o); ok {
		return t
	}
	sub, err := e.store.ReassembleSubtree(o)
	if err != nil {
		return ""
	}
	return sub.XMLString()
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
	sb.WriteString("<answer>\n")
	for _, r := range a.Rows {
		if len(a.Columns) <= 1 {
			sb.WriteString("  <result> ")
			sb.WriteString(escape(a.cell(r, firstColumn(a.Columns))))
			sb.WriteString(" </result>\n")
			continue
		}
		sb.WriteString("  <result>")
		for _, col := range a.Columns {
			sb.WriteString("<" + col + ">")
			sb.WriteString(escape(a.cell(r, col)))
			sb.WriteString("</" + col + ">")
		}
		sb.WriteString("</result>\n")
	}
	sb.WriteString("</answer>")
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

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
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
