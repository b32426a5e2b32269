package ncq_test

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ncq"
	"ncq/internal/xmltree"
)

// specMeet is one answer of meetSpec.
type specMeet struct {
	Node      ncq.NodeID
	Witnesses []ncq.NodeID // ascending
	Distance  int
}

// meetSpec is the paper's meet stated over the syntax tree, as plainly
// as it can be put and sharing no code with the system:
//   - a term's witnesses are the nodes whose own string contains it: a
//     cdata node's text, an element's attribute values;
//   - a node that witnesses two or more of the terms is its own nearest
//     concept at distance 0, and goes no further;
//   - every other witness is a contribution that lifts by Node.Parent,
//     one edge at a time;
//   - the lowest node that two or more contributions reach is their
//     meet, at the edges they climbed, and consumes them — on the root
//     under excludeRoot, without an answer;
//   - a contribution that reaches the root alone is unmatched.
//
// kids are the root's children the document holds: all of them, or
// the run of them one shard holds under its copy of the root.
func meetSpec(root *xmltree.Node, kids []*xmltree.Node, terms []string, excludeRoot bool) (meets []specMeet, unmatched []ncq.NodeID) {
	witnesses := func(n *xmltree.Node) (k int) {
		for _, t := range terms {
			own := n.Kind == xmltree.CData && strings.Contains(n.Text, t)
			for _, a := range n.Attrs {
				own = own || strings.Contains(a.Value, t)
			}
			if own {
				k++
			}
		}
		return k
	}
	type contribution struct {
		from  ncq.NodeID
		lifts int
	}
	var up func(n *xmltree.Node, kids []*xmltree.Node) []contribution
	up = func(n *xmltree.Node, kids []*xmltree.Node) []contribution {
		answers := !(excludeRoot && n.IsRoot())
		var at []contribution
		switch k := witnesses(n); {
		case k >= 2 && answers:
			meets = append(meets, specMeet{n.OID, []ncq.NodeID{n.OID}, 0})
		case k == 1:
			at = append(at, contribution{n.OID, 0})
		}
		for _, c := range kids {
			for _, x := range up(c, c.Children) {
				at = append(at, contribution{x.from, x.lifts + 1})
			}
		}
		if len(at) < 2 {
			return at
		}
		if answers {
			m := specMeet{Node: n.OID}
			for _, x := range at {
				m.Witnesses = append(m.Witnesses, x.from)
				m.Distance += x.lifts
			}
			slices.Sort(m.Witnesses)
			meets = append(meets, m)
		}
		return nil
	}
	for _, x := range up(root, kids) {
		unmatched = append(unmatched, x.from)
	}
	return meets, unmatched
}

// sortSpec puts meets in one order, so two answers compare as multisets.
func sortSpec(meets []specMeet) []specMeet {
	slices.SortFunc(meets, func(a, b specMeet) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Distance, b.Distance), slices.Compare(a.Witnesses, b.Witnesses))
	})
	return meets
}

// TestMeetEqualsSpec is a randomized differential of the plain meet and
// exclude_root against meetSpec on xmltree.Random documents and a small
// vocabulary (cdata texts t0..t7, attribute values v0..v3, substrings of
// both, and a term no node holds): Database.MeetOf over Locate's sets,
// with and without ExcludeRoot, and a three-shard Corpus.Run with
// ExcludeRoot, whose shard-local nodes are mapped back to the
// document's. Of the documents they disagree on it reports the smallest.
func TestMeetEqualsSpec(t *testing.T) {
	vocabulary := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "v0", "v1", "v2", "v3", "t", "v", "1", "x"}
	r := rand.New(rand.NewSource(50))
	ctx := context.Background()
	var smallest *xmltree.Document
	var report string
	for trial := 0; trial < 300; trial++ {
		doc := xmltree.Random(r, 2+r.Intn(80))
		terms := make([]string, 1+r.Intn(3))
		for i := range terms {
			terms[i] = vocabulary[r.Intn(len(vocabulary))]
		}
		if smallest != nil && doc.Len() >= smallest.Len() {
			continue
		}
		if diff := specDiff(ctx, doc, terms); diff != "" {
			smallest, report = doc, fmt.Sprintf("terms %q on %d nodes %s:\n%s", terms, doc.Len(), doc.XMLString(), diff)
		}
	}
	if smallest != nil {
		t.Errorf("the system and the spec disagree; smallest document: %s", report)
	}
}

// specDiff runs the system on doc and terms and says where it departs
// from meetSpec, or "" where it does not.
func specDiff(ctx context.Context, doc *xmltree.Document, terms []string) string {
	xml := doc.XMLString()
	db, err := ncq.OpenString(xml)
	if err != nil {
		return err.Error()
	}
	sets, err := db.Locate(ctx, nil, terms...)
	if err != nil {
		return err.Error()
	}
	root := doc.Root
	var b strings.Builder
	for _, opt := range []*ncq.Options{nil, ncq.ExcludeRoot()} {
		meets, unmatched, err := db.MeetOf(ctx, opt, sets...)
		if err != nil {
			return err.Error()
		}
		got := make([]specMeet, len(meets))
		for i, m := range meets {
			got[i] = specMeet{m.Node, m.Witnesses, m.Distance}
		}
		want, wantUnmatched := meetSpec(root, root.Children, terms, opt != nil)
		if g, w := fmt.Sprint(sortSpec(got), unmatched), fmt.Sprint(sortSpec(want), wantUnmatched); g != w {
			fmt.Fprintf(&b, "MeetOf (exclude_root %t): %s\nspec: %s\n", opt != nil, g, w)
		}
	}

	dbs, err := ncq.OpenSharded(context.Background(), bytes.NewReader([]byte(xml)), int64(len(xml)), 3)
	if err != nil {
		return err.Error()
	}
	c := ncq.NewCorpus()
	if _, err := c.Commit("doc", dbs, true, nil); err != nil {
		return err.Error()
	}
	res, err := c.Run(ctx, ncq.Request{Terms: terms, Options: ncq.ExcludeRoot()})
	if err != nil {
		return err.Error()
	}
	// Shard j holds its own copy of the root and a run of the root's
	// children, in document order: local node o > 1 is the document's
	// node first[j] + o - 2.
	first := make([]ncq.NodeID, len(dbs)+1)
	first[0] = 2
	var want []specMeet
	wantUnmatched := 0
	for j, sh := range dbs {
		first[j+1] = first[j] + ncq.NodeID(sh.Len()-1)
		kids := slices.DeleteFunc(slices.Clone(root.Children), func(n *xmltree.Node) bool { return n.OID < first[j] || n.OID >= first[j+1] })
		meets, unmatched := meetSpec(root, kids, terms, true)
		want = append(want, meets...)
		wantUnmatched += len(unmatched)
	}
	if first[len(dbs)] != ncq.NodeID(doc.Len()+1) {
		return fmt.Sprintf("%d shards hold %d nodes besides their roots, the document %d", len(dbs), first[len(dbs)]-2, doc.Len()-1)
	}
	got := make([]specMeet, len(res.Meets))
	for i, m := range res.Meets {
		j := max(m.Shard, 1) - 1
		orig := func(o ncq.NodeID) ncq.NodeID {
			if o == 1 {
				return 1
			}
			return first[j] + o - 2
		}
		got[i] = specMeet{Node: orig(m.Node), Distance: m.Distance}
		if n := doc.Node(got[i].Node); n == nil || n.Label != m.Tag {
			fmt.Fprintf(&b, "shard %d node %d (%s) is not the document's node %d\n", m.Shard, m.Node, m.Tag, got[i].Node)
		}
		for _, w := range m.Witnesses {
			got[i].Witnesses = append(got[i].Witnesses, orig(w))
		}
	}
	if g, w := fmt.Sprint(sortSpec(got), res.Unmatched), fmt.Sprint(sortSpec(want), wantUnmatched); g != w {
		fmt.Fprintf(&b, "3-shard Corpus.Run (exclude_root): %s\nspec: %s\n", g, w)
	}
	return b.String()
}
