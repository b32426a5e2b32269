// Package idref implements the paper's future-work extension
// (Section 7): incorporating ID/IDREF references, which "may break the
// tree structure of the database, into the search process".
//
// A Graph augments a Monet XML store with the reference edges induced
// by ID/IDREF attributes. The nearest concept of two nodes generalises
// from the lowest common ancestor to the node minimising the summed
// shortest-path distance over the combined edge set (tree edges in both
// directions plus reference edges in both directions) — the "variant of
// nearest neighbor search" the paper anticipates. Because references
// can create cycles, the search is a pair of breadth-first traversals
// with visited bookkeeping, as the paper warns is necessary.
package idref

import (
	"fmt"
	"strings"

	"ncq/internal/bat"
	"ncq/internal/monetx"
)

// Graph is a store augmented with reference edges.
type Graph struct {
	store *monetx.Store
	ids   map[string]bat.OID    // ID value -> declaring element
	refs  map[bat.OID][]bat.OID // element -> referenced elements
	rrefs map[bat.OID][]bat.OID // element -> referring elements
}

// New reads the store's association table for idAttr ("id") and
// refAttr ("idref") attributes, at whatever paths they are written,
// and materialises the reference edges. A refAttr value may hold several
// whitespace-separated IDs (IDREFS). Dangling references are reported
// as an error, duplicated IDs too.
func New(store *monetx.Store, idAttr, refAttr string) (*Graph, error) {
	g := &Graph{
		store: store,
		ids:   make(map[string]bat.OID),
		refs:  make(map[bat.OID][]bat.OID),
		rrefs: make(map[bat.OID][]bat.OID),
	}
	sum := store.Summary()
	owners, paths, vals, values := store.Table()
	// Pass 1: collect IDs.
	for r, pid := range paths {
		if sum.Label(pid) != idAttr {
			continue
		}
		owner, id := owners[r], values[vals[r]]
		if prev, dup := g.ids[id]; dup {
			return nil, fmt.Errorf("idref: ID %q declared by both node %d and node %d", id, prev, owner)
		}
		g.ids[id] = owner
	}
	// Pass 2: resolve references.
	for r, pid := range paths {
		if sum.Label(pid) != refAttr {
			continue
		}
		owner := owners[r]
		for _, id := range strings.Fields(values[vals[r]]) {
			target, ok := g.ids[id]
			if !ok {
				return nil, fmt.Errorf("idref: node %d references undeclared ID %q", owner, id)
			}
			g.refs[owner] = append(g.refs[owner], target)
			g.rrefs[target] = append(g.rrefs[target], owner)
		}
	}
	return g, nil
}

// Refs returns the number of reference edges in the graph.
func (g *Graph) Refs() int {
	n := 0
	for _, ts := range g.refs {
		n += len(ts)
	}
	return n
}

// Lookup resolves an ID value to its declaring element.
func (g *Graph) Lookup(id string) (bat.OID, bool) {
	o, ok := g.ids[id]
	return o, ok
}

// neighbors appends all nodes one edge away from o: the tree parent and
// children plus outgoing and incoming references.
func (g *Graph) neighbors(o bat.OID, buf []bat.OID) []bat.OID {
	if p := g.store.Parent(o); p != bat.Nil {
		buf = append(buf, p)
	}
	buf = append(buf, g.store.Children(o)...)
	buf = append(buf, g.refs[o]...)
	buf = append(buf, g.rrefs[o]...)
	return buf
}

// bfs returns the distance from src to every reachable node.
func (g *Graph) bfs(src bat.OID) map[bat.OID]int {
	dist := map[bat.OID]int{src: 0}
	frontier := []bat.OID{src}
	var buf []bat.OID
	for len(frontier) > 0 {
		var next []bat.OID
		for _, o := range frontier {
			buf = g.neighbors(o, buf[:0])
			for _, n := range buf {
				if _, seen := dist[n]; !seen {
					dist[n] = dist[o] + 1
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return dist
}

// Meet returns the nearest concept of o1 and o2 on the reference-
// augmented graph: the node m minimising dist(o1,m) + dist(o2,m),
// which is the midpoint set of a shortest o1-o2 path. Ties resolve to
// the smallest OID so the result is deterministic. The returned
// distance is dist(o1,m) + dist(o2,m), i.e. the shortest-path length
// between the two inputs.
func (g *Graph) Meet(o1, o2 bat.OID) (m bat.OID, dist int, err error) {
	if !g.store.ValidOID(o1) || !g.store.ValidOID(o2) {
		return bat.Nil, 0, fmt.Errorf("idref: invalid OID pair (%d,%d)", o1, o2)
	}
	d1 := g.bfs(o1)
	d2 := g.bfs(o2)
	best := bat.Nil
	bestSum := -1
	for n, a := range d1 {
		b, ok := d2[n]
		if !ok {
			continue
		}
		if bestSum < 0 || a+b < bestSum || (a+b == bestSum && n < best) {
			best, bestSum = n, a+b
		}
	}
	if bestSum < 0 {
		return bat.Nil, 0, fmt.Errorf("idref: nodes %d and %d are not connected", o1, o2)
	}
	return best, bestSum, nil
}

// Dist returns the shortest-path distance between o1 and o2 on the
// augmented graph.
func (g *Graph) Dist(o1, o2 bat.OID) (int, error) {
	_, d, err := g.Meet(o1, o2)
	return d, err
}

// TreeOnlyMeet computes the plain tree meet for comparison, so callers
// can show how references shorten the nearest-concept distance.
func (g *Graph) TreeOnlyMeet(o1, o2 bat.OID) (bat.OID, int, error) {
	if !g.store.ValidOID(o1) || !g.store.ValidOID(o2) {
		return bat.Nil, 0, fmt.Errorf("idref: invalid OID pair (%d,%d)", o1, o2)
	}
	// Walk up by depth, exactly like core.Meet2's naive form; kept local
	// to avoid a dependency cycle with package core.
	a, b, joins := o1, o2, 0
	for g.store.Depth(a) > g.store.Depth(b) {
		a = g.store.Parent(a)
		joins++
	}
	for g.store.Depth(b) > g.store.Depth(a) {
		b = g.store.Parent(b)
		joins++
	}
	for a != b {
		a, b = g.store.Parent(a), g.store.Parent(b)
		joins += 2
	}
	return a, joins, nil
}
