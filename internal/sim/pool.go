package sim

import (
	"sync"

	"anoncover/internal/shard"
)

// maxIdle bounds how many idle persistent worker pools, and how many
// idle arenas, a Pool parks between runs.  Concurrent runs each check
// one out, so the bound only matters after a burst of concurrency
// subsides; surplus pools are simply stopped, surplus arenas dropped.
const maxIdle = 16

// Pool is a reusable execution context shared by many runs: persistent
// worker pools (goroutines spawned once and re-dispatched run after run)
// and recycled per-run arenas (the O(E) inbox and halo buffers).  A
// compiled solver session holds one Pool so that serving a run costs
// only the rounds themselves, not the per-call setup.
//
// A Pool is safe for concurrent use: every run checks resources out
// under a lock and returns them when done, so concurrent runs never
// share mutable state.  Idle arenas are held on a free list, not in a
// sync.Pool, so a garbage collection does not drop them and the next
// run does not regrow its O(E) buffers.  Close stops the idle worker
// goroutines; it is safe to call concurrently with in-flight runs,
// whose pools are stopped on release instead of being parked.
type Pool struct {
	mu     sync.Mutex
	idle   []*workerPool
	arenas []*arena
	closed bool
}

// NewPool returns an empty Pool.
func NewPool() *Pool { return &Pool{} }

// getWorkers checks out an idle persistent pool of exactly n workers,
// or starts a fresh one.
func (p *Pool) getWorkers(n int) *workerPool {
	p.mu.Lock()
	for i, wp := range p.idle {
		if len(wp.start) == n {
			last := len(p.idle) - 1
			p.idle[i] = p.idle[last]
			p.idle = p.idle[:last]
			p.mu.Unlock()
			return wp
		}
	}
	p.mu.Unlock()
	return newWorkerPool(n)
}

// putWorkers parks a pool for reuse, or stops it when the Pool is
// closed or already holds enough idle pools.
func (p *Pool) putWorkers(wp *workerPool) {
	wp.body = nil
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdle {
		p.mu.Unlock()
		wp.stop()
		return
	}
	p.idle = append(p.idle, wp)
	p.mu.Unlock()
}

// getArena checks out a per-run arena (possibly one recycled from an
// earlier run over the same topology, in which case its buffers are
// reused without reallocation).
func (p *Pool) getArena() *arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if last := len(p.arenas) - 1; last >= 0 {
		a := p.arenas[last]
		p.arenas[last] = nil
		p.arenas = p.arenas[:last]
		return a
	}
	return &arena{}
}

// putArena scrubs the arena's message references — a parked arena must
// not pin a finished run's payloads — and parks it for reuse, unless
// the Pool is closed or already holds enough idle arenas.
func (p *Pool) putArena(a *arena) {
	a.scrub()
	p.mu.Lock()
	if !p.closed && len(p.arenas) < maxIdle {
		p.arenas = append(p.arenas, a)
	}
	p.mu.Unlock()
}

// Close stops all idle worker pools, drops the idle arenas and marks
// the Pool closed, so pools and arenas released by in-flight runs are
// stopped or dropped rather than parked.  Close is
// idempotent; runs started after Close still work, paying the per-run
// spawn cost again.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.arenas = nil, nil
	p.closed = true
	p.mu.Unlock()
	for _, wp := range idle {
		wp.stop()
	}
}

// arena holds one run's worth of engine-owned buffers.  Every slot of
// every buffer is written before it is read within each round (the send
// phase fills the inboxes, value slots and halo buffers the receive
// phase drains), so recycled contents are never observed and the
// buffers need no clearing on reuse — only on release, to unpin the old
// run's messages.  A sleeping run writes a slot only when its node
// sends, but every node sends in round 1 and a node clears its slots
// before it sleeps past a round, so the rule still holds.  The word
// buffers of the wire path are the exception: makeStep zeroes them for
// every run.
type arena struct {
	// A run's programs in shard order (shard blocks at ValBase), the
	// wire view planWire builds of them, and one step per shard, each
	// keeping its buffers from run to run.
	port  []PortProgram
	bcast []BroadcastProgram
	wire  []WirePortProgram
	steps []ShardStep
}

// grabSteps lays the run's programs out in shard order and shapes
// one ShardStep per shard over the arena's buffers.
func (a *arena) grabSteps(st *shard.Topology, port []PortProgram, bcast []BroadcastProgram, rounds int, opt Options) []ShardStep {
	var plan wirePlan
	if port != nil {
		a.port = byShard(a.port, port, st)
		a.wire = grow(a.wire, len(port))
		plan = planWire(a.port, rounds, opt.NoWire, a.wire)
	} else {
		a.bcast = byShard(a.bcast, bcast, st)
	}
	a.steps = grow(a.steps, st.K())
	maxDeg := st.Flat().MaxDeg()
	for s := range st.Shards {
		sh := &st.Shards[s]
		lo, hi := int(sh.ValBase), int(sh.ValBase)+len(sh.Nodes)
		var pp []PortProgram
		var wp []WirePortProgram
		var bp []BroadcastProgram
		if port != nil {
			pp = a.port[lo:hi]
		} else {
			bp = a.bcast[lo:hi]
		}
		if plan.progs != nil {
			wp = plan.progs[lo:hi]
		}
		a.steps[s] = makeStep(sh, pp, wp, bp, plan, opt.ScrambleSeed, maxDeg, rounds, a.steps[s].stepBufs)
	}
	return a.steps
}

// byShard lays progs, indexed by node, out in st's shard order,
// reusing buf.
func byShard[T any](buf, progs []T, st *shard.Topology) []T {
	buf = grow(buf, len(progs))
	for s := range st.Shards {
		sh := &st.Shards[s]
		for i, v := range sh.Nodes {
			buf[int(sh.ValBase)+i] = progs[v]
		}
	}
	return buf
}

// grow returns s resized to n, reallocating only when it lacks the
// capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scrub drops every message and program reference so a parked arena
// does not keep a finished run's payloads (broadcast histories can be
// large) alive.  Word buffers carry no references and are left as they
// are.
func (a *arena) scrub() {
	clear(a.port)
	clear(a.bcast)
	clear(a.wire)
	for i := range a.steps {
		b := a.steps[i].stepBufs
		clear(b.inbox)
		clear(b.out[0])
		clear(b.out[1])
		clear(b.vals)
		clear(b.gather)
		clear(b.sleepers)
		a.steps[i] = ShardStep{stepBufs: b}
	}
}
