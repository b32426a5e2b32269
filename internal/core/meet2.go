package core

import (
	"ncq/internal/bat"
	"ncq/internal/monetx"
)

// Meet2 computes the nearest concept of a pair of objects — the
// function meet_2 of the paper's Figure 3 — together with the number of
// parent joins spent, which equals the number of edges on the path
// between o1 and o2 (the paper's distance δ of Section 4).
//
// The ascent is steered by the prefix order on the objects' paths
// (Definition 5): when one path is a proper prefix of the other, only
// the deeper object is lifted, because the shallower one may itself be
// the meet; when the paths are incomparable or equal, the meet lies
// strictly above both and both are lifted. This "avoids superfluous
// look-ups" exactly as the paper's case analysis does.
func Meet2(s *monetx.Store, o1, o2 bat.OID) (meet bat.OID, joins int, err error) {
	if err := checkOID(s, o1); err != nil {
		return bat.Nil, 0, err
	}
	if err := checkOID(s, o2); err != nil {
		return bat.Nil, 0, err
	}
	sum := s.Summary()
	for o1 != o2 {
		p1, p2 := s.PathOf(o1), s.PathOf(o2)
		switch {
		case p1 != p2 && sum.IsPrefix(p2, p1): // path(o2) prefix of path(o1): o1 deeper
			o1 = s.Parent(o1)
			joins++
		case p1 != p2 && sum.IsPrefix(p1, p2): // o2 deeper
			o2 = s.Parent(o2)
			joins++
		default: // equal or incomparable paths: meet is strictly above both
			o1 = s.Parent(o1)
			o2 = s.Parent(o2)
			joins += 2
		}
	}
	return o1, joins, nil
}

// Dist returns the number of edges on the unique path between o1 and
// o2, computed as the join count of Meet2 (Section 4: "the number of
// joins executed while calculating meet_2 corresponds to the number of
// edges on the shortest path").
func Dist(s *monetx.Store, o1, o2 bat.OID) (int, error) {
	_, joins, err := Meet2(s, o1, o2)
	return joins, err
}

// Meet2Bounded is the d-bounded variant of Section 4: it returns the
// meet only when the distance between o1 and o2 is at most maxDist,
// and bat.Nil (the paper's ⊥) otherwise. The distance is returned in
// both cases.
func Meet2Bounded(s *monetx.Store, o1, o2 bat.OID, maxDist int) (bat.OID, int, error) {
	m, joins, err := Meet2(s, o1, o2)
	if err != nil {
		return bat.Nil, 0, err
	}
	if joins > maxDist {
		return bat.Nil, joins, nil
	}
	return m, joins, nil
}
