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
// locality-ordered execution instead of OS thread thrash.  During the
// send phase a worker steps only its shards' nodes, scattering
// messages through each shard's precomputed route table — same-shard
// messages go straight into the shard's compact local inbox, cut-edge
// messages into fixed-slot halo-out buffers with exactly one writer
// each.  At the phase barrier the halo buffers are published; the
// receive phase starts by draining each shard's incoming halo segments
// into its inbox and then steps its nodes' receive handlers.  Halo
// buffers are double-buffered by round parity (see shard.Topology).
// With one shard there is no cut, so every message goes straight into
// the one inbox and the drains are empty loops.
//
// Delivery runs on three paths (wire.go):
//
//   - Wire port rounds scatter []uint64 word lanes through the same
//     route tables, and the halo exchange becomes plain word copies
//     into lane-striped halo buffers.
//   - Interned broadcast rounds publish one value per node into the
//     bvals table (one block per shard at its ValBase, which the
//     ghost-cell pulls read too) and the receive phase gathers every
//     slot's message through the static BSrc sender table — no
//     per-slot scatter and no drain loop at all.
//   - Boxed rounds keep the Message inboxes, BRoute scatter and
//     halo/ghost-cell drains.
//
// The interned path is also activity-sparse when every program is a
// Sleeper (sendSparse, recvSparse).  After a node's Recv(r) the kernel
// records SleepUntil(r) as the node's due round and skips its Send,
// gather and Recv until then.  Wake rule: a non-nil value wakes each
// node that hears it, for that round's Recv only — same-shard
// receivers are stamped in the send phase through the sender's BRoute
// slots, cut-edge receivers in the receive phase through the shard's
// In halo slots, scanned only when the source shard published a
// non-nil value this round.  A shard with no node due and none woken
// skips both phases in O(1), and a round in which no shard has a node
// due is not dispatched to the workers at all.  Parity-slot rule: a
// skipped node publishes nothing, so both of its value slots must
// already hold nil when it sleeps past the next round.  The slot of the
// next parity is cleared at Recv(r) (round r-1's gathers are done); the
// slot of round r's parity is still being gathered by other shards in
// that phase, so it is cleared at the start of round r+1's send phase.
// Runs whose programs do not all sleep, and the boxed path, stay dense.
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
		ft, err := flatten(r.top)
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

	// Per-run mutable state: the shard.Topology itself is immutable
	// routing, so concurrent runs may share it.  The port model
	// exchanges per-edge halo-out buffers (each port may carry a
	// different message); the broadcast model publishes one value per
	// node and lets receivers pull it — through the ghost-cell drain on
	// the boxed path, through the static BSrc gather on the interned
	// path.  Halo-crossing state is double-buffered by round parity.
	// With a Pool, the whole bundle is recycled from the previous run
	// over the same topology.
	bcast := r.isBroadcast()
	r.interned = bcast && !r.opt.NoWire
	r.wire = PlanWire(r.port, rounds, r.opt.NoWire)
	a, done := r.arenaFor()
	defer done()
	var inboxes [][]Message
	var halo [2][][]Message
	var bvals [2][]Message
	var inboxesW [][]uint64
	var haloW [2][][]uint64
	var sl *sleepState
	if bcast {
		inboxes, _, bvals = a.grabSharded(st, true, !r.interned)
		if r.interned {
			r.bscratch = a.grabScratch(workers, st.Flat().MaxDeg())
			if rounds < math.MaxInt32 {
				sl = a.grabSleep(st, r.bcast)
			}
		}
	} else {
		if r.wire.Codec == nil || r.wire.BoxedRounds {
			inboxes, halo, _ = a.grabSharded(st, false, true)
		}
		if r.wire.Codec != nil {
			inboxesW, haloW = a.grabShardedWords(st, r.wire.MaxW)
			r.outW = a.grabOut(workers, r.wire.MaxW*st.Flat().MaxDeg())
		}
	}
	counts := make([]counters, k)

	stepShard := func(s, w, phase int) {
		sh := &st.Shards[s]
		if sl != nil {
			if phase == phaseSend {
				r.sendSparse(sl, sh, s, bvals, &counts[s])
			} else {
				r.recvSparse(sl, sh, s, w, bvals, int32(rounds))
			}
			return
		}
		if phase == phaseSend {
			var msgs, bytes int64
			switch {
			case r.interned:
				// Publish each node's value once; receivers gather it
				// through the static sender table after the barrier.
				bval := bvals[r.round&1][sh.ValBase:]
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
			case bcast:
				inbox := inboxes[s]
				bval := bvals[r.round&1][sh.ValBase:]
				broute := sh.BRoute
				for i, v := range sh.Nodes {
					m := r.bcast[v].Send(r.round)
					// Publish the node's value once; cut edges are
					// pulled by the destination shard after the
					// barrier, so the scatter walks only the dense
					// local slot list, branch-free.
					bval[i] = m
					for _, rt := range broute[sh.BOff[i]:sh.BOff[i+1]] {
						inbox[rt] = m
					}
					// A broadcast node sends the one message through
					// every port; fold its Stats contribution per node
					// instead of per half-edge (totals are identical,
					// and the equivalence suite asserts so).
					if m != nil {
						deg := int64(sh.Off[i+1] - sh.Off[i])
						msgs += deg
						if sz, ok := m.(Sizer); ok {
							bytes += deg * int64(sz.WireSize())
						}
					}
				}
			case r.curW > 0:
				// Wire round: encode lanes per node, then scatter each
				// lane as a word copy through the same route table.
				wid := r.curW
				inboxW := inboxesW[s]
				hw := haloW[r.round&1][s]
				out := r.outW[w]
				for i, v := range sh.Nodes {
					base := sh.Off[i]
					deg := int(sh.Off[i+1] - base)
					lanes := out[:deg*wid]
					m, b, ok := r.wire.Progs[v].SendWire(r.round, lanes)
					if !ok {
						r.wireFail.Store(true)
						return
					}
					msgs += m
					bytes += b
					// Idle lanes (first word zero) are not scattered;
					// see WirePortProgram.
					routes := sh.Route[base:sh.Off[i+1]]
					switch wid {
					case 1:
						for p, rt := range routes {
							if lanes[p] == 0 {
								continue
							}
							if rt >= 0 {
								inboxW[rt] = lanes[p]
							} else {
								hw[^rt] = lanes[p]
							}
						}
					case 2:
						for p, rt := range routes {
							if lanes[2*p] == 0 {
								continue
							}
							if rt >= 0 {
								inboxW[2*rt] = lanes[2*p]
								inboxW[2*rt+1] = lanes[2*p+1]
							} else {
								hw[2*^rt] = lanes[2*p]
								hw[2*^rt+1] = lanes[2*p+1]
							}
						}
					case 3:
						for p, rt := range routes {
							if lanes[3*p] == 0 {
								continue
							}
							d := 3 * int(rt)
							buf := inboxW
							if rt < 0 {
								d = 3 * int(^rt)
								buf = hw
							}
							buf[d] = lanes[3*p]
							buf[d+1] = lanes[3*p+1]
							buf[d+2] = lanes[3*p+2]
						}
					default:
						for p, rt := range routes {
							if lanes[wid*p] == 0 {
								continue
							}
							lane := lanes[wid*p : wid*p+wid]
							if rt >= 0 {
								copy(inboxW[wid*int(rt):], lane)
							} else {
								copy(hw[wid*int(^rt):], lane)
							}
						}
					}
				}
			default:
				inbox := inboxes[s]
				route := sh.Route
				out := halo[r.round&1][s]
				for i, v := range sh.Nodes {
					outMsgs := r.port[v].Send(r.round)
					base := sh.Off[i]
					if int32(len(outMsgs)) != sh.Off[i+1]-base {
						panic(fmt.Sprintf("sim: node %d sent %d messages, degree %d",
							v, len(outMsgs), sh.Off[i+1]-base))
					}
					routes := route[base:sh.Off[i+1]]
					for p, m := range outMsgs {
						if rt := routes[p]; rt >= 0 {
							inbox[rt] = m
						} else {
							out[^rt] = m
						}
						count(m, &msgs, &bytes)
					}
				}
			}
			counts[s].msgs += msgs
			counts[s].bytes += bytes
			return
		}
		// Receive phase.
		switch {
		case r.interned:
			// Gather every slot's message straight from the published
			// value table; BSrc already routes cut edges, so there is
			// no halo drain.
			vals := bvals[r.round&1]
			scratch := r.bscratch[w]
			for i, v := range sh.Nodes {
				base := int(sh.Off[i])
				src := sh.BSrc[base:sh.Off[i+1]]
				in := scratch[:len(src)]
				for p, e := range src {
					in[p] = vals[e]
				}
				r.recv(int(v), r.round, in)
			}
		case bcast:
			inbox := inboxes[s]
			vals := bvals[r.round&1]
			for hi := range sh.In {
				in := &sh.In[hi]
				srcVal := in.SrcVal
				for i, slot := range in.Slots {
					inbox[slot] = vals[srcVal[i]]
				}
			}
			for i, v := range sh.Nodes {
				r.recv(int(v), r.round, inbox[sh.Off[i]:sh.Off[i+1]])
			}
		case r.curW > 0:
			// Wire round: drain the incoming halo segments as word
			// copies, then hand each node its contiguous lane slice.
			wid := r.curW
			inboxW := inboxesW[s]
			gen := haloW[r.round&1]
			for hi := range sh.In {
				in := &sh.In[hi]
				src := gen[in.Src]
				lo := int(in.Lo)
				switch wid {
				case 1:
					for i, slot := range in.Slots {
						inboxW[slot] = src[lo+i]
					}
				case 2:
					for i, slot := range in.Slots {
						d, o := 2*int(slot), 2*(lo+i)
						inboxW[d] = src[o]
						inboxW[d+1] = src[o+1]
					}
				default:
					for i, slot := range in.Slots {
						o := wid * (lo + i)
						copy(inboxW[wid*int(slot):wid*int(slot)+wid], src[o:o+wid])
					}
				}
			}
			for i, v := range sh.Nodes {
				r.wire.Progs[v].RecvWire(r.round, inboxW[wid*int(sh.Off[i]):wid*int(sh.Off[i+1])])
			}
		default:
			inbox := inboxes[s]
			gen := halo[r.round&1]
			for hi := range sh.In {
				in := &sh.In[hi]
				src := gen[in.Src]
				lo := int(in.Lo)
				for i, slot := range in.Slots {
					inbox[slot] = src[lo+i]
				}
			}
			for i, v := range sh.Nodes {
				r.recv(int(v), r.round, inbox[sh.Off[i]:sh.Off[i+1]])
			}
		}
	}
	body := func(w, phase int) {
		for s := w; s < k; s += workers {
			stepShard(s, w, phase)
		}
	}
	var idle func(int) bool
	if sl != nil {
		idle = sl.idle
	}
	return r.runPhases(rounds, workers, body, idle, counts)
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
// every same-shard receiver through the node's BRoute slots.
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
		ss.pub = rd
		if lo, hi := sh.BOff[i], sh.BOff[i+1]; lo < hi {
			ss.woke = rd
			for _, rt := range sh.BRoute[lo:hi] {
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
