package sim

import (
	"fmt"
	"math"
	"runtime"

	"anoncover/internal/shard"
)

// runSharded is the in-process round kernel behind both barrier
// engines: Sequential runs it with k = 1, Sharded with k = Workers.
// The topology is split into k degree-balanced shards
// (internal/shard), pinned round-robin onto a persistent pool of
// min(k, NumCPU) workers — one worker per shard when the hardware has
// the cores, and a stable multi-shard assignment (worker w owns shards
// w, w+p, ...) when it does not, so oversharding degrades to
// locality-ordered execution instead of OS thread thrash.
//
// Port-model rounds, wire and boxed, and boxed broadcast rounds run
// one ShardStep per shard (step.go), the same step a fleet worker runs
// in internal/dist; only the halo transport differs.  In the send
// phase each step scatters its messages through the shard's route
// table: same-shard messages straight into the shard's inbox, cut-edge
// messages into its halo-out buffer for the round's parity.  After the
// phase barrier each step drains its In segments straight out of the
// source steps' halo-out buffers, then steps its receive handlers.
// With one shard there is no cut, so there is nothing to drain.  A
// port-model step whose programs all sleep skips its silent nodes
// (ShardStep gives the wake and slot rules), and a round in which
// every step is quiet is not dispatched at all.
//
// Interned broadcast rounds (the default for broadcast programs) need
// shared memory and stay in this file: every node publishes one value
// into the bvals table (one block per shard at its ValBase) and the
// receive phase gathers every slot's message through the static BSrc
// sender table — no per-slot scatter and no drain loop at all.
//
// The interned path is also activity-sparse when every program is a
// Sleeper (sendSparse, recvSparse).  After a node's Recv(r) the kernel
// records SleepUntil(r) as the node's due round and skips its Send,
// gather and Recv until then.  Wake rule: a non-nil value wakes each
// node that hears it, for that round's Recv only — same-shard
// receivers are stamped in the send phase through the sender's local
// Route entries, cut-edge receivers in the receive phase through the
// shard's In halo slots, scanned only when the source shard published
// a non-nil value this round.  A shard with no node due and none woken
// skips both phases in O(1), and a round in which no shard has a node
// due is not dispatched to the workers at all.  Parity-slot rule: a
// skipped node publishes nothing, so both of its value slots must
// already hold nil when it sleeps past the next round.  The slot of the
// next parity is cleared at Recv(r) (round r-1's gathers are done); the
// slot of round r's parity is still being gathered by other shards in
// that phase, so it is cleared at the start of round r+1's send phase.
// Runs whose programs do not all sleep, and the boxed broadcast path,
// stay dense.
//
// Sharding is an execution detail only: outputs and Stats are
// bit-identical to the one-shard reference on every program, every
// shard count and every delivery path (equiv_test.go pins this down).
func (r *runner) runSharded(rounds, k int) (Stats, error) {
	var st *shard.Topology
	if pre, ok := r.top.(*shard.Topology); ok && pre.K() == k {
		// A pre-built sharded view with a matching shard count is
		// reused, amortizing partitioning across runs the way a
		// pre-flattened *graph.FlatTopology amortizes CSR construction.
		st = pre
	} else {
		ft, err := shard.Flat(r.top)
		if err != nil {
			return Stats{}, err
		}
		st = shard.BuildK(ft, k)
	}
	k = st.K() // the partitioner clamps k for tiny topologies

	// Pool size: one worker per shard, but never more than the user's
	// GOMAXPROCS and never more than the physical cores.  Exceeding
	// either just multiplexes OS threads over the same hardware, and
	// measured ~1.5x slower on a 1-core box than letting one worker
	// step several shards; the shard structure (and its locality and
	// routing wins) is identical either way.
	workers := k
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if ncpu := runtime.NumCPU(); workers > ncpu {
		workers = ncpu
	}

	// Per-run mutable state lives in the arena: the shard.Topology
	// itself is immutable routing, so concurrent runs may share it.
	// With a Pool, the arena is recycled from the previous run over the
	// same topology.
	a, done := r.arenaFor()
	defer done()
	counts := make([]counters, k)
	if r.isBroadcast() && !r.opt.NoWire {
		body, idle := r.internedBody(st, a, workers, rounds, counts)
		return r.runPhases(rounds, workers, body, idle, counts)
	}
	steps := a.grabSteps(st, r.port, r.bcast, rounds, r.opt)
	idle := func(round int) bool {
		for s := range steps {
			if !steps[s].quiet(round) {
				return false
			}
		}
		return true
	}
	body := func(w, phase int) {
		for s := w; s < k; s += workers {
			step := &steps[s]
			if phase == phaseSend {
				msgs, bytes, err := step.Send(r.round)
				if err != nil {
					r.wireFail.Store(true)
				}
				counts[s].msgs += msgs
				counts[s].bytes += bytes
				continue
			}
			for si := range step.sh.In {
				in := &step.sh.In[si]
				step.Drain(si, steps[in.Src].HaloOut(r.round).seg(int(in.Lo), len(in.Slots), step.w))
			}
			step.Recv(r.round)
		}
	}
	return r.runPhases(rounds, workers, body, idle, counts)
}

// internedBody returns the round body of the interned broadcast path,
// and the idle test of its activity-sparse form when every program is
// a Sleeper.
func (r *runner) internedBody(st *shard.Topology, a *arena, workers, rounds int, counts []counters) (body func(w, phase int), idle func(int) bool) {
	bvals := a.grabVals(st)
	r.bscratch = a.grabScratch(workers, st.Flat().MaxDeg())
	var sl *sleepState
	if rounds < math.MaxInt32 {
		sl = a.grabSleep(st, r.bcast)
	}
	k := st.K()
	body = func(w, phase int) {
		for s := w; s < k; s += workers {
			sh := &st.Shards[s]
			switch {
			case sl != nil && phase == phaseSend:
				r.sendSparse(sl, sh, s, bvals, &counts[s])
			case sl != nil:
				r.recvSparse(sl, sh, s, w, bvals, int32(rounds))
			case phase == phaseSend:
				// Publish each node's value once; receivers gather it
				// through the static sender table after the barrier.
				bval := bvals[r.round&1][sh.ValBase:]
				var msgs, bytes int64
				for i, v := range sh.Nodes {
					m := r.bcast[v].Send(r.round)
					bval[i] = m
					if m != nil {
						deg := int64(sh.Off[i+1] - sh.Off[i])
						msgs += deg
						if sz, ok := m.(Sizer); ok {
							bytes += deg * int64(sz.WireSize())
						}
					}
				}
				counts[s].msgs += msgs
				counts[s].bytes += bytes
			default:
				// Gather every slot's message straight from the published
				// value table; BSrc already routes cut edges, so there is
				// no halo drain.
				vals := bvals[r.round&1]
				scratch := r.bscratch[w]
				for i, v := range sh.Nodes {
					src := sh.BSrc[sh.Off[i]:sh.Off[i+1]]
					in := scratch[:len(src)]
					for p, e := range src {
						in[p] = vals[e]
					}
					r.recv(int(v), r.round, in)
				}
			}
		}
	}
	if sl != nil {
		idle = sl.idle
	}
	return body, idle
}

// sleepState is a run's activity-sparse bookkeeping for the interned
// broadcast path: who is due when, who was woken this round, and which
// value slots still need clearing.  It lives in the run's arena, so a
// pooled run allocates none of it.
type sleepState struct {
	progs []Sleeper // per node
	// due and wake are indexed by value-table position (ValBase+i):
	// node i of a shard runs round r in full when due == r, and only
	// its Recv when it is not due but wake == r.
	due  []int32
	wake []int32
	// owner maps each shard's inbox slots to the local index of the
	// node the slot belongs to; st is the topology it was built for.
	owner  [][]int32
	st     *shard.Topology
	shards []shardSleep
}

// shardSleep is one shard's round-level sleep state, padded so shards
// stepped by different workers do not share a cache line.
type shardSleep struct {
	minDue int32 // earliest due round of any node in the shard
	woke   int32 // last round a same-shard send woke one of its nodes
	// pub is the last round the shard published a non-nil value.  Other
	// shards read it in the receive phase, so it keeps a word of its own.
	pub   int32
	slept []int32 // nodes that fell asleep in the last receive phase
	_     [32]byte
}

// idle reports whether no shard has work in round: no node is due, so
// nothing is sent and nobody is woken, and no value slot is left to
// clear from the round before (only this round's send phase addresses
// that slot's parity).
func (sl *sleepState) idle(round int) bool {
	rd := int32(round)
	for s := range sl.shards {
		if ss := &sl.shards[s]; ss.minDue <= rd || len(ss.slept) > 0 {
			return false
		}
	}
	return true
}

// sendSparse is the send phase of an activity-sparse interned round:
// only due nodes send.  A sleeping node's value slots are nil in both
// parities (see runSharded), so skipping it publishes exactly the nil
// its Send would have returned.  A non-nil value stamps a wake on
// every same-shard receiver through the node's local Route entries.
func (r *runner) sendSparse(sl *sleepState, sh *shard.Shard, s int, bvals [2][]Message, cnt *counters) {
	ss := &sl.shards[s]
	rd := int32(r.round)
	// Nodes that fell asleep at Recv(r-1) still hold their round-(r-1)
	// value in the other parity; every gather of round r-1 is past the
	// barrier now, so it can go.
	if len(ss.slept) > 0 {
		prev := bvals[(r.round+1)&1][sh.ValBase:]
		for _, i := range ss.slept {
			prev[i] = nil
		}
		ss.slept = ss.slept[:0]
	}
	if ss.minDue > rd {
		return
	}
	base := int(sh.ValBase)
	bval := bvals[r.round&1][base:]
	due := sl.due[base : base+len(sh.Nodes)]
	wake := sl.wake[base : base+len(sh.Nodes)]
	owner := sl.owner[s]
	var msgs, bytes int64
	for i, v := range sh.Nodes {
		if due[i] > rd {
			continue
		}
		m := r.bcast[v].Send(r.round)
		bval[i] = m
		if m == nil {
			continue
		}
		deg := int64(sh.Off[i+1] - sh.Off[i])
		msgs += deg
		if sz, ok := m.(Sizer); ok {
			bytes += deg * int64(sz.WireSize())
		}
		// Stamp the same-shard receivers; cut-edge ones are found by
		// their own shard in the receive phase.  woke may be set for a
		// node whose ports are all cut, which only costs its shard one
		// scan of nodes that have nothing due.
		ss.pub, ss.woke = rd, rd
		for _, rt := range sh.Route[sh.Off[i]:sh.Off[i+1]] {
			if rt >= 0 {
				wake[owner[rt]] = rd
			}
		}
	}
	cnt.msgs += msgs
	cnt.bytes += bytes
}

// recvSparse is the receive phase of an activity-sparse interned round.
// Cut-edge wakes are found by scanning the In halo segments of source
// shards that published something this round; a shard with no node due
// and none woken returns without touching its nodes.  Otherwise every
// due or woken node gathers and receives as on the dense path, and is
// asked when it must run next.
func (r *runner) recvSparse(sl *sleepState, sh *shard.Shard, s, w int, bvals [2][]Message, rounds int32) {
	ss := &sl.shards[s]
	rd := int32(r.round)
	vals := bvals[r.round&1]
	base := int(sh.ValBase)
	wake := sl.wake[base : base+len(sh.Nodes)]
	owner := sl.owner[s]
	woke := ss.woke == rd
	for hi := range sh.In {
		in := &sh.In[hi]
		if sl.shards[in.Src].pub != rd {
			continue
		}
		for j, slot := range in.Slots {
			if vals[in.SrcVal[j]] != nil {
				wake[owner[slot]] = rd
				woke = true
			}
		}
	}
	if !woke && ss.minDue > rd {
		return
	}
	due := sl.due[base : base+len(sh.Nodes)]
	next := bvals[(r.round+1)&1][base:]
	scratch := r.bscratch[w]
	minDue := int32(math.MaxInt32)
	for i, v := range sh.Nodes {
		d := due[i]
		if d > rd && wake[i] != rd {
			minDue = min(minDue, d)
			continue
		}
		src := sh.BSrc[sh.Off[i]:sh.Off[i+1]]
		in := scratch[:len(src)]
		for p, e := range src {
			in[p] = vals[e]
		}
		r.recv(int(v), r.round, in)
		until := sl.progs[v].SleepUntil(r.round)
		if until <= r.round {
			panic(fmt.Sprintf("sim: node %d: SleepUntil(%d) = %d, want a later round", v, r.round, until))
		}
		nd := rounds + 1
		if until <= int(rounds) {
			nd = int32(until)
		}
		if d <= rd && nd > rd+1 {
			// The node sent this round and now sleeps past the next
			// one.  Its next-parity slot still holds its round-(r-1)
			// value, which no gather reads any more; its current-parity
			// slot is being gathered this phase and is cleared in the
			// next send phase.
			next[i] = nil
			ss.slept = append(ss.slept, int32(i))
		}
		due[i] = nd
		minDue = min(minDue, nd)
	}
	ss.minDue = minDue
}
