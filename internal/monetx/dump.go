package monetx

import (
	"bufio"
	"fmt"
	"io"

	"ncq/internal/pathsum"
)

// DumpTransform writes the Monet transform in the style of the paper's
// Figure 2: one line per relation, listing its associations as
// ⟨head,tail⟩ pairs. limit > 0 truncates each relation to that many
// pairs (with an ellipsis); limit <= 0 prints everything. Relations
// appear in path-summary interning order, which is document order of
// first appearance. A string relation is the table's rows at its path,
// in owner order; an edge relation pairs each OID at its path with its
// parent, in document order.
func (s *Store) DumpTransform(w io.Writer, limit int) error {
	bw := bufio.NewWriter(w)
	sum := s.summary
	rowsAt := make([][]int, sum.Len()) // attr path -> its rows, in owner order
	for r, pid := range s.paths {
		rowsAt[pid] = append(rowsAt[pid], r)
	}
	for _, pid := range sum.AllPaths() {
		var n int
		var pair func(i int) // writes the relation's i-th pair
		if rows := rowsAt[pid]; sum.Kind(pid) == pathsum.Attr {
			if len(rows) == 0 {
				continue
			}
			n, pair = len(rows), func(i int) { fmt.Fprintf(bw, "⟨o%d,%q⟩", s.owners[rows[i]], s.values[s.vals[rows[i]]]) }
		} else if oids := s.OIDsAt(pid); len(oids) == 0 || oids[0] == s.root {
			n, pair = 1, func(int) { fmt.Fprintf(bw, "⟨root,o%d⟩", s.root) } // the root path has no incoming edges
		} else {
			n, pair = len(oids), func(i int) { fmt.Fprintf(bw, "⟨o%d,o%d⟩", s.parent[oids[i]], oids[i]) }
		}
		fmt.Fprintf(bw, "%s = {", sum.String(pid))
		for i := range n {
			if limit > 0 && i == limit {
				fmt.Fprintf(bw, ", … (%d more)", n-limit)
				break
			}
			if i > 0 {
				fmt.Fprint(bw, ", ")
			}
			pair(i)
		}
		if _, err := fmt.Fprintln(bw, "}"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PathInfo describes one relation of the store's catalogue.
type PathInfo struct {
	Path  string // display form, e.g. "/dblp/inproceedings@key"
	Attr  bool   // true for string (attribute) relations
	Count int    // number of associations (nodes or strings)
}

// PathInfos lists the catalogue in interning order: every element path
// with its node count and every attribute path with its string count,
// counted in one pass over the path array and the table's path column.
func (s *Store) PathInfos() []PathInfo {
	sum := s.summary
	counts := make([]int, sum.Len())
	for _, pid := range s.pathOf[1:] {
		counts[pid]++
	}
	for _, pid := range s.paths {
		counts[pid]++
	}
	out := make([]PathInfo, len(counts))
	for pid, c := range counts {
		p := pathsum.PathID(pid)
		out[pid] = PathInfo{Path: sum.String(p), Attr: sum.Kind(p) == pathsum.Attr, Count: c}
	}
	return out
}
