// Package cluster turns ncqd into a horizontally scalable system: a
// coordinator node that places documents on worker nodes by consistent
// hashing and scatter-gathers queries across them, merging the
// workers' independently ranked NDJSON streams into one exact global
// ranking.
//
// The design exploits the symmetry PR 5 created: a corpus member is a
// ranked stream k-way merged by (distance, source, shard, node), so a
// remote worker speaking NDJSON over /v2/query?stream=1&header=1 is
// the same abstraction as a local member. The coordinator opens one
// stream per worker, reads each worker's header (total, unmatched,
// generation), and feeds the per-line decoded meets into
// ncq.MergeMeets — the first global result is bounded by the slowest
// worker's first answer, never by any worker's full answer set.
// Because consistent hashing places every logical document on exactly
// one worker, the per-worker rankings cover disjoint (source, shard)
// sets and their merge equals the single-node ranking bit for bit.
// That holds for whatever a worker ranks: a request in the paper's
// query language is forwarded as the text it came as (wire.QueryOf),
// parsed and lowered by every worker, and merged like terms — the
// coordinator has no code for it.
//
// Consistency across pages is generation-vector based: every worker
// stamps its stream header with the corpus generation its membership
// snapshot was taken at, the coordinator hashes the vector — tracked
// for every worker, overlaid with what the scatter just read — into
// the cursor it mints, and a later page whose vector hashes
// differently fails with 410 Gone — exactly the single-node
// ErrStaleCursor contract, extended across nodes.
//
// The package serves no query route of its own. POST /v2/query is
// internal/server's front end (server.Front: plain, batch, stream,
// result cache, admission, counters, statuses) and the Coordinator is
// its Backend, the way a corpus is a node's: what lives here is what
// only a coordinator knows — the ring, the scatter and its failure
// policy, the generation vector — and its own routes (document proxy,
// merged listing, health poll, stats roll-up).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerWorker is how many virtual nodes each worker contributes to
// the ring. 128 keeps the placement spread within a few percent of
// uniform for small worker counts while the ring stays tiny.
const vnodesPerWorker = 128

// Ring is a consistent-hash ring placing logical document names on
// worker nodes. Placement is deterministic in the worker set alone —
// virtual nodes are hashed from worker names, so every coordinator
// configured with the same workers (in any order) routes a name
// identically — and adding or removing one worker moves only ~1/n of
// the names instead of reshuffling everything.
type Ring struct {
	hashes []uint64 // sorted vnode positions
	owners []string // owners[i] owns the arc ending at hashes[i]
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV-1a clusters on short similar keys ("w1#0", "w1#1", ...); the
	// splitmix64 finalizer avalanches the bits so vnode positions — and
	// document names — spread uniformly around the ring.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds the ring over the given worker names.
func NewRing(workers []string) *Ring {
	r := &Ring{
		hashes: make([]uint64, 0, len(workers)*vnodesPerWorker),
		owners: make([]string, 0, len(workers)*vnodesPerWorker),
	}
	type vnode struct {
		hash  uint64
		owner string
	}
	vnodes := make([]vnode, 0, len(workers)*vnodesPerWorker)
	for _, w := range workers {
		for i := 0; i < vnodesPerWorker; i++ {
			vnodes = append(vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", w, i)), owner: w})
		}
	}
	// The owner tie-break keeps placement deterministic even on the
	// (astronomically unlikely) vnode hash collision.
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].hash != vnodes[j].hash {
			return vnodes[i].hash < vnodes[j].hash
		}
		return vnodes[i].owner < vnodes[j].owner
	})
	for _, v := range vnodes {
		r.hashes = append(r.hashes, v.hash)
		r.owners = append(r.owners, v.owner)
	}
	return r
}

// Owner returns the worker that owns the logical document name: the
// first virtual node at or clockwise after the name's hash.
func (r *Ring) Owner(name string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := hash64(name)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap past the highest vnode onto the first
	}
	return r.owners[i]
}
