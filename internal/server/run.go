package server

// The execution path: every query — single, batch item — is lowered
// from its wire form into an ncq.Request and resolved here, through
// one cache keyed by the request's canonical encoding.

import (
	"context"
	"sync"

	"ncq"
	"ncq/internal/cache"
	"ncq/internal/wire"
)

// runCached resolves one request through the cache — the one cache
// rule of both roles. Look up under gen, the backend's generation read
// before executing, keyed by key, the request's canonical encoding: a
// hit splices the stored bytes into the response. A miss drains the
// request's stream into the page's result bytes (wire.EncodeResult)
// and stores the response — those bytes plus the page metadata — under
// the generation the answer itself reports, so a racing mutation can
// never publish a stale entry under the new generation. An incomplete
// answer is never stored.
func (f *Front) runCached(ctx context.Context, gen uint64, key string, req ncq.Request) (wire.Response, error) {
	if req.Vague != nil {
		f.vagueRequests.Inc()
	}
	ck := cache.Key{Gen: gen, Query: key}
	if v, ok := f.cache.Get(ck); ok {
		resp := v.(wire.Response)
		resp.Cached = true
		return resp, nil
	}
	// A page is the stream drained, whatever the backend and whichever
	// field of the body asked.
	seq, stats := f.backend.LinesWithStats(ctx, req)
	raw, err := wire.EncodeResult(&req, seq, stats)
	if err != nil {
		return wire.Response{}, err
	}
	f.observeRelaxations(stats.RelaxationsBySlack)
	resp := wire.Response{Generation: stats.Generation, Truncated: stats.Truncated, NextCursor: stats.NextCursor,
		Incomplete: stats.Incomplete, WorkerErrors: stats.WorkerErrors, Result: raw}
	if !resp.Incomplete {
		ck.Gen = resp.Generation
		f.cache.Put(ck, resp, len(raw)+len(resp.NextCursor))
	}
	return resp, nil
}

// observeRelaxations feeds a vague execution's per-slack relaxation
// counts into the ncq_vague_relaxations_total histogram: one
// observation of value s per answer that used slack s. Cache hits
// observe nothing — the work was not redone.
func (f *Front) observeRelaxations(bySlack []int) {
	for slack, n := range bySlack {
		for i := 0; i < n; i++ {
			f.vagueRelax.Observe(float64(slack))
		}
	}
}

// batchUnit is one distinct piece of work of a batch: duplicate
// queries in a request collapse onto a single unit, so each distinct
// request is resolved through the cache — and executed — exactly once.
type batchUnit struct {
	key string // req.Canonical()
	req ncq.Request
	out wire.Response
	err error
}

// collectUnits dedupes the valid requests of a batch onto distinct
// execution units, keyed by the canonical request encoding shared with
// the cache. reqs[i] == nil marks an item that already failed
// validation; its assigned slot stays nil.
func collectUnits(reqs []*ncq.Request) (assigned, units []*batchUnit) {
	assigned = make([]*batchUnit, len(reqs))
	byKey := make(map[string]*batchUnit)
	for i, r := range reqs {
		if r == nil {
			continue
		}
		key := r.Canonical()
		u, ok := byKey[key]
		if !ok {
			u = &batchUnit{key: key, req: *r}
			byKey[key] = u
			units = append(units, u)
		}
		assigned[i] = u
	}
	return assigned, units
}

// runUnits executes the distinct units of a batch over a bounded
// worker pool sized like the backend's fan-out. Each unit resolves
// through the cache individually, so a batch repeating yesterday's
// queries is pure cache traffic. A unit's own execution may fan out
// again (corpus-wide or sharded queries), briefly oversubscribing the
// CPU up to workers²; that is deliberate — the scheduler stays work-
// conserving, and the outer pool is what parallelises the units whose
// inner execution is serial (cache hits, plain single-doc queries).
func (f *Front) runUnits(ctx context.Context, gen uint64, units []*batchUnit) {
	workers := f.backend.Parallelism()
	if workers > len(units) {
		workers = len(units)
	}
	runUnit := func(u *batchUnit) {
		u.out, u.err = f.runCached(ctx, gen, u.key, u.req)
	}
	if workers <= 1 {
		for _, u := range units {
			runUnit(u)
		}
		return
	}
	next := make(chan *batchUnit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				runUnit(u)
			}
		}()
	}
	for _, u := range units {
		next <- u
	}
	close(next)
	wg.Wait()
}
