package serve

import (
	"context"
	"net/http"
	"sync"
	"time"

	"anoncover"
)

// Batched small-instance execution: instead of one simulator run per
// request, small plain requests for uncached topologies wait out a
// short admission window and run together as one disjoint union under
// a single round barrier (anoncover.BatchRunner).  Per-component
// parameters keep every instance on exactly its solo schedule, so each
// request's cover is bit-identical to what its own run would have
// produced — the batch only amortizes the per-run setup (worker
// checkout, arenas, barrier turns) that dominates small instances at
// fleet scale.
//
// Batch runs compile nothing and create no cache entries: a topology
// hot enough to deserve a compiled solver (and its memo) should be
// promoted explicitly through the warm/pin endpoints, after which its
// requests take the cached solo path instead of the window.

// vcBatchItem is one request parked in the batch window.  The batch
// goroutine fills resp or (status, errMsg) and closes done.
type vcBatchItem struct {
	g      *anoncover.Graph
	fp     string
	whash  string
	verify bool
	done   chan struct{}
	resp   vcResponse
	status int
	errMsg string
	// runWall is the pooled run's wall time, copied to every waiter so
	// each request's trace carries the run phase it actually waited on.
	runWall time.Duration
}

// vcBatch is one admission window's worth of requests.
type vcBatch struct {
	items   []*vcBatchItem
	flushed bool
}

// vcBatcher owns the window clock and the persistent BatchRunner.
type vcBatcher struct {
	s      *Server
	window time.Duration
	limit  int // flush early at this many requests
	runner *anoncover.BatchRunner

	mu  sync.Mutex
	cur *vcBatch
}

func newVCBatcher(s *Server) (*vcBatcher, error) {
	runner, err := anoncover.NewBatchRunner(s.sessionOpts()...)
	if err != nil {
		return nil, err
	}
	return &vcBatcher{
		s: s, window: s.cfg.BatchWindow, limit: s.cfg.BatchLimit,
		runner: runner,
	}, nil
}

func (b *vcBatcher) close() { b.runner.Close() }

// submit parks a request in the current window, opening one (and
// arming its flush timer) when none is collecting.  A window that
// reaches the batch limit flushes immediately.
func (b *vcBatcher) submit(it *vcBatchItem) {
	b.mu.Lock()
	if b.cur == nil {
		batch := &vcBatch{}
		b.cur = batch
		time.AfterFunc(b.window, func() { b.flush(batch) })
	}
	batch := b.cur
	batch.items = append(batch.items, it)
	full := len(batch.items) >= b.limit
	b.mu.Unlock()
	if full {
		b.flush(batch)
	}
}

// flush closes the window and runs it.  The timer and the size trigger
// can race here; flushed makes the second caller a no-op.
func (b *vcBatcher) flush(batch *vcBatch) {
	b.mu.Lock()
	if batch.flushed {
		b.mu.Unlock()
		return
	}
	batch.flushed = true
	if b.cur == batch {
		b.cur = nil
	}
	items := batch.items
	b.mu.Unlock()
	if len(items) > 0 {
		b.run(items)
	}
}

// run executes one batch: dedup identical (topology, weights) requests
// into groups — intra-batch coalescing — run the union once, then fan
// the per-group results back out to every waiter.
func (b *vcBatcher) run(items []*vcBatchItem) {
	type group struct {
		items []*vcBatchItem
	}
	idx := make(map[string]int)
	var groups []*group
	var gs []*anoncover.Graph
	for _, it := range items {
		key := it.fp + "|" + it.whash
		if gi, ok := idx[key]; ok {
			groups[gi].items = append(groups[gi].items, it)
			b.s.ctrs.Coalesced.Add(1)
			continue
		}
		idx[key] = len(groups)
		groups = append(groups, &group{items: []*vcBatchItem{it}})
		gs = append(gs, it.g)
	}

	// The batch runs detached from any single request: a client
	// abandoning its slot must not kill everyone else's run.  The
	// server-wide timeout still bounds it.
	ctx := context.Background()
	if b.s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.s.cfg.Timeout)
		defer cancel()
	}

	b.s.ctrs.Runs.Add(1)
	b.s.ctrs.BatchRuns.Add(1)
	b.s.ctrs.Batched.Add(int64(len(items)))
	t0 := time.Now()
	res, err := b.runner.VertexCover(ctx, gs)
	wall := time.Since(t0)
	for _, it := range items {
		it.runWall = wall
	}
	if err != nil {
		b.s.ctrs.RunErrors.Add(1)
		status, msg := runStatus(err), "batch run failed: "+err.Error()
		for _, it := range items {
			it.status, it.errMsg = status, msg
			close(it.done)
		}
		return
	}
	// Observe the pooled run once in the per-run histograms: the union
	// ran to its slowest component's schedule, delivering every
	// component's traffic.
	var rounds int
	var messages, bytes int64
	for _, r := range res {
		rounds = max(rounds, r.Rounds)
		messages += r.Messages
		bytes += r.Bytes
	}
	b.s.tel.observeRun("vertexcover", rounds, messages, bytes)
	occupancy := len(items)
	for gi, grp := range groups {
		r := res[gi]
		verify := false
		for _, it := range grp.items {
			verify = verify || it.verify
		}
		if verify {
			if verr := r.Verify(); verr != nil {
				b.s.ctrs.RunErrors.Add(1)
				b.s.ctrs.CertificateFailures.Add(1)
				for _, it := range grp.items {
					it.status = http.StatusInternalServerError
					it.errMsg = "INVARIANT VIOLATION: " + verr.Error()
					close(it.done)
				}
				continue
			}
		}
		base := vcResponse{
			Fingerprint: grp.items[0].fp, Algorithm: "vertexcover",
			N: len(r.Cover), M: len(r.Packing),
			Cover: coverIndices(r.Cover), Weight: r.Weight,
			Rounds: r.Rounds, Messages: r.Messages, Bytes: r.Bytes,
			Cache: "batch", Batch: occupancy,
		}
		base.CoverSize = len(base.Cover)
		for _, it := range grp.items {
			resp := base
			resp.Verified = it.verify // verification ran and passed for the group
			it.resp = resp
			close(it.done)
		}
	}
}

// serveVCBatched parks the request in the batch window and relays the
// batch outcome.  A request that expires while parked leaves the
// batch to finish for its co-tenants (the item is simply abandoned;
// the batch goroutine's close of done goes unobserved).
func (s *Server) serveVCBatched(w http.ResponseWriter, ctx context.Context,
	p runParams, g *anoncover.Graph, fp string, start time.Time) {

	tr := traceFrom(ctx)
	tr.label("vertexcover", fp, "batch")
	it := &vcBatchItem{
		g: g, fp: fp, whash: hashWeights(g.Weights()),
		verify: p.verify, done: make(chan struct{}),
	}
	s.batch.submit(it)
	select {
	case <-it.done:
		tr.mark(phaseRun, it.runWall)
		if it.errMsg != "" {
			writeError(w, it.status, "%s", it.errMsg)
			return
		}
		resp := it.resp
		resp.ElapsedMS = msSince(start)
		tr.setBatch(resp.Batch)
		tr.result(resp.Rounds, resp.Messages, resp.Bytes)
		writeJSON(w, http.StatusOK, resp)
	case <-ctx.Done():
		s.waitFailure(w, ctx)
	}
}
