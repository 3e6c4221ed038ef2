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
// A sleeping run writes a value slot only when its node sends, but every
// node sends in round 1 and a node clears both of its slots before it
// sleeps past a round, so the rule still holds.
// The word buffers of the wire path hold no pointers and are skipped by
// the release scrub entirely.
type arena struct {
	out    [][]uint64  // per-worker wire lane scratch
	gather [][]Message // per-worker interned gather scratch

	// Per-shard buffers, valid only for the (topology, model, shape)
	// triple they were last shaped for.
	st       *shard.Topology
	bcast    bool
	hasInbox bool
	inboxes  [][]Message
	halo     [2][][]Message
	bvals    [2][]Message    // broadcast value table, shard blocks at ValBase
	stW      *shard.Topology // wire-path buffers' topology
	stWords  int             // ... and their per-slot word capacity
	inboxesW [][]uint64
	haloW    [2][][]uint64

	sleep sleepState // activity-sparse broadcast state (engine_sharded.go)
}

// grabOut returns per-worker lane scratch, each of size words.
func (a *arena) grabOut(workers, size int) [][]uint64 {
	if len(a.out) != workers {
		a.out = make([][]uint64, workers)
	}
	for w := range a.out {
		if cap(a.out[w]) < size {
			a.out[w] = make([]uint64, size)
		} else {
			a.out[w] = a.out[w][:size]
		}
	}
	return a.out
}

// grabScratch returns per-worker gather scratch of deg message slots.
func (a *arena) grabScratch(workers, deg int) [][]Message {
	if len(a.gather) != workers {
		a.gather = make([][]Message, workers)
	}
	for w := range a.gather {
		if cap(a.gather[w]) < deg {
			a.gather[w] = make([]Message, deg)
		} else {
			a.gather[w] = a.gather[w][:deg]
		}
	}
	return a.gather
}

// grabSharded returns the per-shard inboxes and double-buffered halo
// buffers for st, reusing the previous run's buffers when the arena was
// last shaped for the same topology and model.  withInbox is false for
// the interned broadcast path, which delivers straight out of the
// published value tables and needs no per-shard inboxes at all.
func (a *arena) grabSharded(st *shard.Topology, bcast, withInbox bool) (inboxes [][]Message, halo [2][][]Message, bvals [2][]Message) {
	if a.st == st && a.bcast == bcast && (a.hasInbox || !withInbox) {
		return a.inboxes, a.halo, a.bvals
	}
	k := st.K()
	a.st, a.bcast, a.hasInbox = st, bcast, withInbox
	a.inboxes = make([][]Message, k)
	for gen := 0; gen < 2; gen++ {
		a.halo[gen] = make([][]Message, k)
		a.bvals[gen] = nil
		if bcast {
			a.bvals[gen] = make([]Message, st.N())
		}
	}
	for s := 0; s < k; s++ {
		sh := &st.Shards[s]
		if withInbox {
			a.inboxes[s] = make([]Message, sh.InboxLen())
		}
		if !bcast {
			for gen := 0; gen < 2; gen++ {
				a.halo[gen][s] = make([]Message, sh.HaloOut)
			}
		}
	}
	return a.inboxes, a.halo, a.bvals
}

// grabShardedWords returns the per-shard word-lane inboxes and
// double-buffered halo-out word buffers, sized for lanes of maxW words
// per slot and zeroed: the idle-lane convention (WirePortProgram)
// distinguishes live lanes from stale slots by round stamps, and a
// recycled buffer could otherwise replay a previous run's stamps at the
// same round numbers.
func (a *arena) grabShardedWords(st *shard.Topology, maxW int) (inboxesW [][]uint64, haloW [2][][]uint64) {
	if a.stW == st && a.stWords >= maxW {
		for _, b := range a.inboxesW {
			clear(b)
		}
		for gen := 0; gen < 2; gen++ {
			for _, b := range a.haloW[gen] {
				clear(b)
			}
		}
		return a.inboxesW, a.haloW
	}
	k := st.K()
	a.stW, a.stWords = st, maxW
	a.inboxesW = make([][]uint64, k)
	for gen := 0; gen < 2; gen++ {
		a.haloW[gen] = make([][]uint64, k)
	}
	for s := 0; s < k; s++ {
		sh := &st.Shards[s]
		a.inboxesW[s] = make([]uint64, maxW*sh.InboxLen())
		for gen := 0; gen < 2; gen++ {
			a.haloW[gen][s] = make([]uint64, maxW*sh.HaloOut)
		}
	}
	return a.inboxesW, a.haloW
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

// scrub drops every message reference so a parked arena does not keep a
// finished run's payloads (broadcast histories can be large) alive.
// Word buffers carry no references and are left as they are.
func (a *arena) scrub() {
	for _, in := range a.gather {
		clearMsgs(in)
	}
	for _, in := range a.inboxes {
		clearMsgs(in)
	}
	for gen := 0; gen < 2; gen++ {
		for _, b := range a.halo[gen] {
			clearMsgs(b)
		}
		clearMsgs(a.bvals[gen])
	}
	clear(a.sleep.progs)
}

func clearMsgs(s []Message) {
	for i := range s {
		s[i] = nil
	}
}
