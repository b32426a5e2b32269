package pathsum

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// referenceIntern is Intern as it was when every look-up went through
// the byKey map, kept verbatim: the ids, the refusals and their order
// are what the sibling scan has to reproduce.
func referenceIntern(s *Summary, parent PathID, label string, kind Kind) (PathID, error) {
	if parent == Invalid && kind != Elem {
		return Invalid, fmt.Errorf("pathsum: root path must be an element, got attribute %q", label)
	}
	if parent != Invalid && !s.valid(parent) {
		return Invalid, fmt.Errorf("pathsum: unknown parent path %d", parent)
	}
	if label == "" {
		return Invalid, fmt.Errorf("pathsum: empty label")
	}
	k := key{parent, label, kind}
	if id, ok := s.byKey[k]; ok {
		return id, nil
	}
	if parent == Invalid && len(s.nodes) > 0 {
		return Invalid, fmt.Errorf("pathsum: second root path %q (root is %q)", label, s.nodes[0].label)
	}
	var depth int32
	sep, prefix := "/", ""
	if parent != Invalid {
		depth = s.nodes[parent].depth + 1
		prefix = s.nodes[parent].str
		if kind == Attr {
			sep = "@"
		}
	}
	if depth > MaxDepth {
		return Invalid, fmt.Errorf("pathsum: step %q lies %d steps below the root path, limit is %d", label, depth, MaxDepth)
	}
	id := PathID(len(s.nodes))
	s.nodes = append(s.nodes, node{parent: parent, label: label, str: prefix + sep + label, kind: kind, depth: depth})
	s.byKey[k] = id
	if parent != Invalid {
		if kind == Attr {
			s.nodes[parent].attrs = append(s.nodes[parent].attrs, id)
		} else {
			s.nodes[parent].children = append(s.nodes[parent].children, id)
		}
	}
	return id, nil
}

type step struct {
	parent PathID
	label  string
	kind   Kind
}

// internBoth drives steps through Intern on one summary and
// referenceIntern on another and requires the same id and the same
// error at every step, and the same summary at the end.
func internBoth(t *testing.T, steps []step) {
	t.Helper()
	got, want := New(), New()
	for i, st := range steps {
		// A fresh copy: an equal label must be found when it is not the
		// same pointer, too.
		gid, gerr := got.Intern(st.parent, strings.Clone(st.label), st.kind)
		wid, werr := referenceIntern(want, st.parent, st.label, st.kind)
		if gid != wid || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("step %d %+v: Intern = (%d, %v), map-only reference (%d, %v)", i, st, gid, gerr, wid, werr)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("summaries differ: %d paths; reference %d", got.Len(), want.Len())
	}
	var underAttr []PathID
	for _, id := range want.AllPaths() {
		if got.String(id) != want.String(id) || got.Kind(id) != want.Kind(id) ||
			!slices.Equal(got.Children(id), want.Children(id)) || !slices.Equal(got.AttrPaths(id), want.AttrPaths(id)) {
			t.Fatalf("path %d: %q differs from the reference's %q", id, got.String(id), want.String(id))
		}
		// Lookup resolves element steps only: leave out what the random
		// steps hung under an attribute.
		if p := want.Parent(id); p != Invalid && (want.Kind(p) == Attr || slices.Contains(underAttr, p)) {
			underAttr = append(underAttr, id)
			continue
		}
		labels := want.Labels(id)
		if want.Kind(id) == Attr {
			if found, ok := got.LookupAttr(labels[:len(labels)-1], labels[len(labels)-1]); !ok || found != id {
				t.Fatalf("LookupAttr(%v) = (%d, %v), want %d", labels, found, ok, id)
			}
		} else if found, ok := got.Lookup(labels); !ok || found != id {
			t.Fatalf("Lookup(%v) = (%d, %v), want %d", labels, found, ok, id)
		}
	}
}

// decodeSteps turns fuzz bytes into steps, three bytes each: the parent
// ranges over every interned path (at most as many as steps so far),
// Invalid and one id too small and too large; the label over the empty
// label and more distinct ones than the scan covers; the kind over both.
func decodeSteps(data []byte) []step {
	var steps []step
	for ; len(data) >= 3; data = data[3:] {
		n := len(steps) + 1
		parent := PathID(int(data[0])%(n+3)) - 2
		label := ""
		if l := data[1] % (scanSiblings + 4); l > 0 {
			label = fmt.Sprintf("l%d", l)
		}
		steps = append(steps, step{parent, label, Kind(data[2] % 2)})
	}
	return steps
}

func TestInternScanEqualsMap(t *testing.T) {
	// Scripted: the root; more siblings than the scan covers, re-interned
	// in reverse; an element and an attribute of one label under one
	// parent; a second root; an empty label; unknown parents; an
	// attribute root.
	steps := []step{{Invalid, "root", Attr}, {Invalid, "root", Elem}, {Invalid, "root", Elem}, {Invalid, "other", Elem}}
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*scanSiblings+3; i++ {
			l := fmt.Sprintf("c%d", i)
			if round == 1 {
				l = fmt.Sprintf("c%d", 2*scanSiblings+2-i)
			}
			steps = append(steps, step{0, l, Elem}, step{0, l, Attr}, step{1, l, Attr})
		}
	}
	steps = append(steps, step{0, "", Elem}, step{0, "", Attr}, step{-2, "x", Elem}, step{1 << 20, "x", Elem}, step{1 << 20, "", Attr})
	internBoth(t, steps)

	// The depth bound, through the scan (one child per parent): the
	// chain is refused at the same step, and re-interning it is not.
	steps = []step{{Invalid, "a", Elem}}
	for d := 0; d < MaxDepth+2; d++ {
		steps = append(steps, step{PathID(min(d, MaxDepth)), "a", Elem})
	}
	steps = append(steps, step{MaxDepth, "k", Attr}, step{MaxDepth - 1, "k", Attr}, step{MaxDepth - 1, "a", Elem})
	internBoth(t, steps)

	r := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		data := make([]byte, 3*(1+r.Intn(400)))
		r.Read(data)
		if i%2 == 0 {
			data[0], data[1], data[2] = 1, 1, 0 // start with a root, so the rest builds on it
		}
		internBoth(t, decodeSteps(data))
	}
}

func FuzzIntern(f *testing.F) {
	f.Add([]byte{1, 1, 0, 2, 1, 0, 2, 1, 1, 2, 2, 0, 3, 1, 0})
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 1, 0, 9, 1, 0})
	wide := []byte{1, 1, 0}
	for l := byte(1); l < scanSiblings+4; l++ {
		wide = append(wide, 2, l, 0, 2, l, 1)
	}
	f.Add(append(wide, wide[3:]...))
	f.Add([]byte("110911910")) // an attribute under an attribute
	f.Fuzz(func(t *testing.T, data []byte) {
		internBoth(t, decodeSteps(data))
	})
}
