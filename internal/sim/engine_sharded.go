package sim

import (
	"fmt"
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
	if bcast {
		inboxes, _, bvals = a.grabSharded(st, true, !r.interned)
		if r.interned {
			r.bscratch = a.grabScratch(workers, st.Flat().MaxDeg())
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
	return r.runPhases(rounds, workers, body, counts)
}
