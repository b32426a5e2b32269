package shard

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ncq/internal/xmltree"
)

// balanceCorpus is what the two-pass split is compared with Split on:
// text among the root's children — first, between, last —, a root with
// attributes, with one child, with none, and random documents.
func balanceCorpus() []string {
	srcs := []string{
		`<r/>`,
		`<r>only text</r>`,
		`<r><a/></r>`,
		`<r x="1" y="2"><a>1</a><b><c>2</c><c>3</c></b><a/><a>4</a><b/></r>`,
		`<r>lead<a><b/><b/><b/></a>mid<a/>mid<a><b>x</b></a>trail</r>`,
		`<r><big><n/><n/><n/><n/><n/><n/><n/><n/><n/></big><s/><s/><s/></r>`,
		`<r> <a/> <a/> <a/> <a/> <a/> <a/> <a/> <a/> </r>`,
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 60; i++ {
		srcs = append(srcs, xmltree.Random(rng, 10+i*5).XMLString())
	}
	return srcs
}

// TestWeighEqualsTree: the counting sink sees the subtree sizes the
// tree's preorder intervals give.
func TestWeighEqualsTree(t *testing.T) {
	for _, src := range balanceCorpus() {
		doc, err := xmltree.Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, c := range doc.Root.Children {
			want = append(want, int(c.End-c.OID)+1)
		}
		got, err := Weigh(strings.NewReader(src))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%.60s: weights %v (%v), the tree has %v", src, got, err, want)
		}
	}
	if _, err := Weigh(strings.NewReader(`<r><a></r>`)); err == nil || !strings.Contains(err.Error(), "parse at byte 9") {
		t.Fatalf("malformed input: %v", err)
	}
}

// TestBalanceEqualsSplit: a second parse through Balance delivers the
// documents Split makes of the tree through it, for every k.
func TestBalanceEqualsSplit(t *testing.T) {
	for _, src := range balanceCorpus() {
		doc, err := xmltree.Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		weights, err := Weigh(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 2, 3, 4, 7, MaxShards, MaxShards + 36} {
			want := Split(doc, k)
			var got []*xmltree.Document
			b := Balance(weights, k, xmltree.Documents(func(d *xmltree.Document) error {
				got = append(got, d)
				return nil
			}))
			if err := xmltree.ParseSplit(strings.NewReader(src), nil, b); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%.60s k=%d: %d shards, Split makes %d", src, k, len(got), len(want))
			}
			for i := range want {
				if !xmltree.Equal(got[i], want[i]) || got[i].XMLString() != want[i].XMLString() {
					t.Fatalf("%.60s k=%d shard %d:\n got %s\nwant %s", src, k, i, got[i].XMLString(), want[i].XMLString())
				}
			}
		}
	}
}

// TestCutsPartition pins the contract of cuts on its own: positive
// counts that sum to the number of children, at most min(k, MaxShards)
// of them.
func TestCutsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		weights := make([]int, rng.Intn(150))
		for i := range weights {
			weights[i] = 1 + rng.Intn(40)
		}
		k := rng.Intn(MaxShards + 10)
		takes := cuts(weights, k)
		sum := 0
		for _, n := range takes {
			if n <= 0 && len(weights) > 0 {
				t.Fatalf("%v k=%d: count %d in %v", weights, k, n, takes)
			}
			sum += n
		}
		if most := max(1, min(k, MaxShards)); sum != len(weights) || len(takes) > most {
			t.Fatalf("%v k=%d: %v sums to %d of %d, at most %d shards", weights, k, takes, sum, len(weights), most)
		}
	}
}
