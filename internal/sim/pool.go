package sim

import (
	"sync"

	"anoncover/internal/shard"
)

// maxIdleWorkerPools bounds how many idle persistent worker pools a Pool
// parks between runs.  Concurrent runs each check one out, so the bound
// only matters after a burst of concurrency subsides; surplus pools are
// simply stopped.
const maxIdleWorkerPools = 16

// Pool is a reusable execution context shared by many runs: persistent
// worker pools (goroutines spawned once and re-dispatched run after run)
// and recycled per-run arenas (the O(E) inbox and halo buffers).  A
// compiled solver session holds one Pool so that serving a run costs
// only the rounds themselves, not the per-call setup.
//
// A Pool is safe for concurrent use: every run checks resources out
// under a lock (worker pools) or through a sync.Pool (arenas) and
// returns them when done, so concurrent runs never share mutable state.
// Close stops the idle worker goroutines; it is safe to call
// concurrently with in-flight runs, whose pools are stopped on release
// instead of being parked.
type Pool struct {
	mu     sync.Mutex
	idle   []*workerPool
	closed bool
	arenas sync.Pool // *arena
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
	if p.closed || len(p.idle) >= maxIdleWorkerPools {
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
	if a, ok := p.arenas.Get().(*arena); ok {
		return a
	}
	return &arena{}
}

// putArena scrubs the arena's message references — a parked arena must
// not pin a finished run's payloads — and returns it for reuse.
func (p *Pool) putArena(a *arena) {
	a.scrub()
	p.arenas.Put(a)
}

// Close stops all idle worker pools and marks the Pool closed, so pools
// released by in-flight runs are stopped rather than parked.  Close is
// idempotent; runs started after Close still work, paying the per-run
// spawn cost again.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, wp := range idle {
		wp.stop()
	}
}

// arena holds one run's worth of engine-owned buffers.  Every slot of
// every buffer is written before it is read within each round (the send
// phase fills the inboxes and halo buffers the receive phase drains),
// so recycled contents are never observed and the buffers need no
// clearing on reuse — only on release, to unpin the old run's messages.
// A sleeping run writes a slot only when its node sends, but every node
// sends in round 1 and a node clears its slots before it sleeps past a
// round, so the rule still holds.  The word buffers of the wire path are
// the exception: makeStep zeroes them for every run.
type arena struct {
	gather [][]Message // per-worker interned gather scratch

	// A run's programs in value-table order (shard blocks at ValBase),
	// the wire view planWire builds of them, and one step per shard,
	// each keeping its buffers from run to run.
	port  []PortProgram
	bcast []BroadcastProgram
	wire  []WirePortProgram
	steps []ShardStep

	stVals *shard.Topology // the value table's topology
	bvals  [2][]Message    // interned value table, shard blocks at ValBase

	sleep sleepState // activity-sparse broadcast state (engine_sharded.go)
}

// grabSteps lays the run's programs out in value-table order and shapes
// one ShardStep per shard over the arena's buffers.
func (a *arena) grabSteps(st *shard.Topology, port []PortProgram, bcast []BroadcastProgram, rounds int, opt Options) []ShardStep {
	var plan wirePlan
	if port != nil {
		a.port = byValue(a.port, port, st)
		a.wire = grow(a.wire, len(port))
		plan = planWire(a.port, rounds, opt.NoWire, a.wire)
	} else {
		a.bcast = byValue(a.bcast, bcast, st)
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

// byValue lays progs, indexed by node, out in st's value-table order,
// reusing buf.
func byValue[T any](buf, progs []T, st *shard.Topology) []T {
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

// grabScratch returns per-worker gather scratch of deg message slots.
func (a *arena) grabScratch(workers, deg int) [][]Message {
	a.gather = grow(a.gather, workers)
	for w := range a.gather {
		a.gather[w] = grow(a.gather[w], deg)
	}
	return a.gather
}

// grabVals returns the interned path's double-buffered value table.
func (a *arena) grabVals(st *shard.Topology) [2][]Message {
	if a.stVals != st {
		a.stVals = st
		a.bvals = [2][]Message{make([]Message, st.N()), make([]Message, st.N())}
	}
	return a.bvals
}

// grabSleep returns the sleep state for a run of progs over st, or nil
// when some program is not a Sleeper (the run then stays dense).  The
// slot→owner tables depend on st alone and are rebuilt only when the
// arena was last shaped for another topology; the per-node and
// per-shard round stamps are re-armed for every run, since round
// numbers restart at 1 and a stale stamp would wake or skip a node.
func (a *arena) grabSleep(st *shard.Topology, progs []BroadcastProgram) *sleepState {
	sl := &a.sleep
	n := st.N()
	if cap(sl.progs) < n {
		sl.progs = make([]Sleeper, n)
	}
	sl.progs = sl.progs[:n]
	for v, p := range progs {
		s, ok := p.(Sleeper)
		if !ok {
			clear(sl.progs)
			return nil
		}
		sl.progs[v] = s
	}
	k := st.K()
	if sl.st != st {
		sl.st = st
		sl.due = make([]int32, n)
		sl.wake = make([]int32, n)
		sl.owner = make([][]int32, k)
		sl.shards = make([]shardSleep, k)
		for s := range st.Shards {
			sh := &st.Shards[s]
			owner := make([]int32, sh.InboxLen())
			for i := range sh.Nodes {
				for slot := sh.Off[i]; slot < sh.Off[i+1]; slot++ {
					owner[slot] = int32(i)
				}
			}
			sl.owner[s] = owner
			sl.shards[s].slept = make([]int32, 0, len(sh.Nodes))
		}
	}
	for i := range sl.due {
		sl.due[i] = 1
	}
	clear(sl.wake)
	for s := range sl.shards {
		ss := &sl.shards[s]
		ss.minDue, ss.pub, ss.woke = 1, 0, 0
		ss.slept = ss.slept[:0]
	}
	return sl
}

// scrub drops every message and program reference so a parked arena
// does not keep a finished run's payloads (broadcast histories can be
// large) alive.  Word buffers carry no references and are left as they
// are.
func (a *arena) scrub() {
	for _, in := range a.gather {
		clear(in)
	}
	clear(a.port)
	clear(a.bcast)
	clear(a.wire)
	for i := range a.steps {
		b := a.steps[i].stepBufs
		clear(b.inbox)
		clear(b.out[0])
		clear(b.out[1])
		a.steps[i] = ShardStep{stepBufs: b}
	}
	clear(a.bvals[0])
	clear(a.bvals[1])
	clear(a.sleep.progs)
}
