package sim

import (
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
// Every round, in every model, runs one ShardStep per shard (step.go),
// the same step a fleet worker runs in internal/dist; only the halo
// transport differs.  In the send phase each step sends through the
// shard's route table: same-shard messages straight into the shard's
// inbox (a broadcast node's one value into its value slot), cut-edge
// messages into its halo-out buffer for the round's parity.  After the
// phase barrier each step drains its In segments straight out of the
// source steps' halo-out buffers, then steps its receive handlers.
// With one shard there is no cut, so there is nothing to drain.  A
// step whose programs all sleep skips its silent nodes (ShardStep
// gives the wake and slot rules), and a round in which every step is
// quiet is not dispatched at all.
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
