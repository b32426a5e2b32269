package core

import (
	"math/rand"
	"testing"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

func fig1Store(t *testing.T) *monetx.Store {
	t.Helper()
	s, err := monetx.Load(xmltree.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// meet2Naive is the unsteered reference: it equalises depths and then
// ascends both objects in lock-step, with depth look-ups instead of
// path-prefix tests.
func meet2Naive(s *monetx.Store, o1, o2 bat.OID) (bat.OID, int) {
	joins := 0
	for s.Depth(o1) > s.Depth(o2) {
		o1 = s.Parent(o1)
		joins++
	}
	for s.Depth(o2) > s.Depth(o1) {
		o2 = s.Parent(o2)
		joins++
	}
	for o1 != o2 {
		o1 = s.Parent(o1)
		o2 = s.Parent(o2)
		joins += 2
	}
	return o1, joins
}

func TestMeet2PaperExamples(t *testing.T) {
	s := fig1Store(t)
	cases := []struct {
		name     string
		o1, o2   bat.OID
		wantMeet bat.OID
		wantDist int
	}{
		// Section 3.1: "Ben" (o6) and "Bit" (o8) constitute an author's name.
		{"Ben+Bit -> author", 6, 8, 4, 4},
		// "Bob" and "Byte" return the same cdata association o15.
		{"BobByte with itself", 15, 15, 15, 0},
		// "Bit" (o8) and the first "1999" (o12): Mr Bit published an article.
		{"Bit+1999 -> article", 8, 12, 3, 5},
		// The two "1999"s only meet at the institute.
		{"1999+1999 -> institute", 12, 19, 2, 6},
		{"ancestor is its own meet with a descendant", 3, 8, 3, 3},
		{"root with leaf", 1, 19, 1, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, joins, err := Meet2(s, c.o1, c.o2)
			if err != nil {
				t.Fatal(err)
			}
			if m != c.wantMeet || joins != c.wantDist {
				t.Errorf("Meet2(o%d,o%d) = (o%d,%d), want (o%d,%d)",
					c.o1, c.o2, m, joins, c.wantMeet, c.wantDist)
			}
			// "Note that meet_2 does not depend on the order of its arguments."
			m2, joins2, err := Meet2(s, c.o2, c.o1)
			if err != nil {
				t.Fatal(err)
			}
			if m2 != m || joins2 != joins {
				t.Errorf("Meet2 not symmetric: (o%d,%d) vs (o%d,%d)", m, joins, m2, joins2)
			}
		})
	}
}

func TestMeet2Errors(t *testing.T) {
	s := fig1Store(t)
	if _, _, err := Meet2(s, 0, 5); err == nil {
		t.Error("Meet2 with Nil OID succeeded")
	}
	if _, _, err := Meet2(s, 5, 99); err == nil {
		t.Error("Meet2 with out-of-range OID succeeded")
	}
}

func TestDist(t *testing.T) {
	s := fig1Store(t)
	d, err := Dist(s, 6, 8)
	if err != nil || d != 4 {
		t.Errorf("Dist(6,8) = (%d,%v), want (4,nil)", d, err)
	}
	if _, err := Dist(s, 0, 1); err == nil {
		t.Error("Dist with invalid OID succeeded")
	}
}

func TestMeet2Bounded(t *testing.T) {
	s := fig1Store(t)
	// Distance between o8 and o12 is 5.
	m, d, err := Meet2Bounded(s, 8, 12, 5)
	if err != nil || m != 3 || d != 5 {
		t.Errorf("Meet2Bounded(8,12,5) = (o%d,%d,%v), want (o3,5,nil)", m, d, err)
	}
	m, d, err = Meet2Bounded(s, 8, 12, 4)
	if err != nil || m != bat.Nil || d != 5 {
		t.Errorf("Meet2Bounded(8,12,4) = (o%d,%d,%v), want (Nil,5,nil) — the paper's ⊥", m, d, err)
	}
	if _, _, err := Meet2Bounded(s, 0, 1, 3); err == nil {
		t.Error("Meet2Bounded with invalid OID succeeded")
	}
}

// TestMeet2AgainstNaiveOnRandomTrees is the central correctness
// property: the path-steered algorithm of Figure 3 must agree with a
// plain depth-equalising LCA walk and with the document-level oracle.
func TestMeet2AgainstNaiveOnRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		doc := xmltree.Random(r, 70)
		s, err := monetx.Load(doc)
		if err != nil {
			t.Fatal(err)
		}
		n := bat.OID(s.Len())
		for trial := 0; trial < 200; trial++ {
			o1 := bat.OID(r.Intn(int(n))) + 1
			o2 := bat.OID(r.Intn(int(n))) + 1
			m, joins, err := Meet2(s, o1, o2)
			if err != nil {
				t.Fatal(err)
			}
			nm, njoins := meet2Naive(s, o1, o2)
			if m != nm {
				t.Fatalf("doc %d: Meet2(%d,%d) = %d, naive = %d", i, o1, o2, m, nm)
			}
			if joins != njoins {
				t.Fatalf("doc %d: Meet2(%d,%d) joins = %d, naive = %d", i, o1, o2, joins, njoins)
			}
			want := doc.LCA(doc.Node(o1), doc.Node(o2))
			if m != want.OID {
				t.Fatalf("doc %d: Meet2(%d,%d) = %d, tree oracle = %d", i, o1, o2, m, want.OID)
			}
			if joins != doc.Dist(doc.Node(o1), doc.Node(o2)) {
				t.Fatalf("doc %d: joins(%d,%d) = %d, tree distance = %d",
					i, o1, o2, joins, doc.Dist(doc.Node(o1), doc.Node(o2)))
			}
		}
	}
}
