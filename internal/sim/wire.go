package sim

import "errors"

// This file defines the unboxed wire path: a delivery mode in which the
// round kernel moves fixed-width message payloads as flat lanes of
// 8-byte words instead of boxed Message values.
//
// # Port model
//
// A program opts in by implementing WirePortProgram.  Its WireCodec
// half declares, per round, a lane width in words; the kernel then
// sizes one []uint64 inbox per shard (width × the shard's half-edges,
// for the run's widest round) and the whole round becomes a contiguous
// word-copy problem: SendWire encodes a node's outgoing messages into
// one lane per port, the kernel scatters each lane through the shard's
// route table into the shard's word inbox or a lane-striped halo
// buffer, and RecvWire reads the node's contiguous lane slice directly
// — no interface headers, no pointer chasing, nothing for the garbage
// collector to trace.
//
// A width of 0 for a round means "this round's payloads do not fit a
// fixed width" and the kernel delivers that round through the boxed
// Send/Recv path instead — programs with a few fat rounds (edgepack's
// Cole–Vishkin colours) keep tight lanes for the rounds that dominate.
// A program whose every round reports 0 simply runs fully boxed.
//
// The wire path is an execution detail in exactly the sense sharding
// is: outputs and Stats must be bit-identical to the boxed path, and
// the equivalence suite pins it (TestEquiv*, TestWireStatsParity).
// Options.NoWire forces the boxed path for any program, which is how
// the tests get their reference rows.
//
// # Broadcast model
//
// Broadcast programs need no opt-in: every node publishes exactly one
// value per round, so the kernel interns that value once in a per-shard
// value table and delivers lanes of *senders*, not payloads.  The
// sender of every inbox slot is a static property of the topology (the
// far endpoint of the slot's half-edge), so the per-half-edge scatter
// disappears entirely: the send phase writes n values, and the receive
// phase gathers each node's messages through the shard.Shard.BSrc
// table, which replaces the ghost-cell halo drain as well.
// Options.NoWire restores the scattering boxed path here too.

// ErrWireOverflow is returned by a run that chose the wire path and
// then met a value its declared lane width cannot hold (for example a
// rational promoted past int64).  Node programs are mid-round garbage
// at that point; the caller should rebuild its programs and rerun with
// Options.NoWire set.  The algorithm packages do this automatically,
// so the fallback is invisible to their callers.
var ErrWireOverflow = errors.New("sim: message does not fit its declared wire lane; rerun boxed")

// WireCodec declares a program's lane geometry.  Widths must be a
// function of the globally known parameters and the round number only,
// so that every node of a run reports identical widths — the engines
// read one node's codec and trust it for all (the same prerequisite
// lockstep schedules already impose).
type WireCodec interface {
	// WireWords returns the lane width in 8-byte words used by every
	// message of round r, or 0 when round r must travel boxed.
	WireWords(r int) int
}

// WirePortProgram is a PortProgram that can additionally encode its
// rounds into fixed-width word lanes.  The boxed Send/Recv methods
// remain in use: the CSP oracle always runs them, the barrier engines
// run them for rounds whose WireWords is 0, and Options.NoWire forces
// them throughout.  Both paths must drive the same state machine.
type WirePortProgram interface {
	PortProgram
	WireCodec

	// SendWire encodes round r's outgoing messages into out, which
	// holds Degree lanes of WireWords(r) words each (lane p is
	// out[p*w:(p+1)*w]).  It returns the number of non-nil messages
	// encoded and their total wire bytes — exactly the tallies the
	// boxed path's Stats accounting would have produced — and ok=false
	// when some value does not fit the lane, which aborts the run with
	// ErrWireOverflow.
	//
	// Lane word 0 is the idle gate: a lane whose first word is zero is
	// an idle (nil) lane and the engines do not scatter it — sparse
	// rounds cost one word per idle port instead of a full lane copy.
	// A live lane's first word must therefore be nonzero.  Because an
	// idle lane's destination slot keeps whatever bytes an earlier
	// round left there, a program with sparse rounds must make live
	// first words round-distinguishable (stamp the round number into
	// them) and use the same lane width for every wire round, so that
	// word 0 of a slot only ever holds such a stamp (or the zero the
	// buffers start the run with — engines hand every run zeroed lane
	// buffers).  Programs whose every lane is always live need only
	// keep word 0 nonzero.
	SendWire(r int, out []uint64) (msgs, bytes int64, ok bool)

	// RecvWire delivers round r's incoming lanes, laid out like out in
	// SendWire.  Lanes that were idle at the sender hold stale slot
	// bytes, which the round-stamp convention above lets the decoder
	// reject.  The slice is engine-owned and reused; programs must not
	// retain it.
	RecvWire(r int, in []uint64)
}

// WirePlan is a port-model run's delivery-path decision: which rounds
// travel as word lanes, how wide the lanes are, and whether any round
// still travels boxed.  The in-process kernel and the distributed
// shard executor both take it from PlanWire, so every engine reaches
// the same verdict for the same programs and schedule.
type WirePlan struct {
	Progs       []WirePortProgram // per-node wire view; nil means fully boxed
	Codec       WireCodec         // lane widths per round; nil means fully boxed
	MaxW        int               // widest lane of the run, in words
	BoxedRounds bool              // some rounds still travel boxed
}

// PlanWire inspects a run's programs and schedule: the wire path is
// taken only when every program implements WirePortProgram, NoWire is
// off, and the codec declares a nonzero width for at least one round.
// Widths come from the first program's codec (see WireCodec).
// Broadcast runs pass nil programs and get the boxed plan.
func PlanWire(progs []PortProgram, rounds int, noWire bool) WirePlan {
	if noWire || len(progs) == 0 {
		return WirePlan{}
	}
	wp := make([]WirePortProgram, len(progs))
	for i, p := range progs {
		w, ok := p.(WirePortProgram)
		if !ok {
			return WirePlan{}
		}
		wp[i] = w
	}
	plan := WirePlan{Progs: wp, Codec: wp[0]}
	for round := 1; round <= rounds; round++ {
		w := plan.Codec.WireWords(round)
		plan.MaxW = max(plan.MaxW, w)
		if w == 0 {
			plan.BoxedRounds = true
		}
	}
	if plan.MaxW == 0 {
		return WirePlan{} // program declined every round
	}
	return plan
}
