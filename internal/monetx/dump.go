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
// first appearance.
func (s *Store) DumpTransform(w io.Writer, limit int) error {
	bw := bufio.NewWriter(w)
	sum := s.summary
	for _, pid := range sum.AllPaths() {
		if sum.Kind(pid) == pathsum.Attr {
			rel := s.strs[pid]
			if rel == nil {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%s = {", sum.String(pid)); err != nil {
				return err
			}
			for i := 0; i < rel.Len(); i++ {
				if limit > 0 && i == limit {
					fmt.Fprintf(bw, ", … (%d more)", rel.Len()-limit)
					break
				}
				if i > 0 {
					fmt.Fprint(bw, ", ")
				}
				fmt.Fprintf(bw, "⟨o%d,%q⟩", rel.Head(i), rel.Tail(i))
			}
			if _, err := fmt.Fprintln(bw, "}"); err != nil {
				return err
			}
			continue
		}
		rel := s.Edges(pid)
		if rel == nil { // the root path has no incoming edges
			if _, err := fmt.Fprintf(bw, "%s = {⟨root,o%d⟩}\n", sum.String(pid), s.root); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(bw, "%s = {", sum.String(pid)); err != nil {
			return err
		}
		for i := 0; i < rel.Len(); i++ {
			if limit > 0 && i == limit {
				fmt.Fprintf(bw, ", … (%d more)", rel.Len()-limit)
				break
			}
			if i > 0 {
				fmt.Fprint(bw, ", ")
			}
			fmt.Fprintf(bw, "⟨o%d,o%d⟩", rel.Head(i), rel.Tail(i))
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
// with its node count and every attribute path with its string count.
func (s *Store) PathInfos() []PathInfo {
	sum := s.summary
	out := make([]PathInfo, 0, sum.Len())
	for _, pid := range sum.AllPaths() {
		pi := PathInfo{Path: sum.String(pid)}
		if sum.Kind(pid) == pathsum.Attr {
			pi.Attr = true
			if rel := s.strs[pid]; rel != nil {
				pi.Count = rel.Len()
			}
		} else {
			pi.Count = len(s.oidsAt[pid])
		}
		out = append(out, pi)
	}
	return out
}
