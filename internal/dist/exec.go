package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"anoncover/internal/obs"
	"anoncover/internal/sim"
)

// Run-level error priorities: a semantic outcome (wire overflow, round
// budget, context cancellation) explains the run and must win over the
// transport noise it causes — an aborted peer's connection reset is a
// symptom, not the diagnosis.  Within a priority the first error
// sticks.
const (
	prioIO       = 1
	prioSemantic = 2
)

// errAborted is what a worker reports when the coordinator cancelled
// the run without a reason of this worker's own.
var errAborted = errors.New("dist: run aborted")

// runState is the shared failure latch of one run: any goroutine
// (executor, conn reader, abort handler) can fail it; everyone else
// observes the cancellation through the channel.  finish() marks the
// run complete so that teardown noise (readers hitting EOF on closed
// connections) no longer registers.
type runState struct {
	cancel chan struct{}

	mu       sync.Mutex
	err      error
	prio     int
	finished bool
}

func newRunState() *runState {
	return &runState{cancel: make(chan struct{})}
}

func (rs *runState) fail(err error, prio int) {
	if err == nil {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.finished {
		return
	}
	if rs.err == nil || prio > rs.prio {
		rs.err, rs.prio = err, prio
	}
	if !rs.closed() {
		close(rs.cancel)
	}
}

func (rs *runState) closed() bool {
	select {
	case <-rs.cancel:
		return true
	default:
		return false
	}
}

func (rs *runState) finish() {
	rs.mu.Lock()
	rs.finished = true
	rs.mu.Unlock()
}

func (rs *runState) failure() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.err
}

// staging is one shard's receive side of the per-pair barrier: two
// generations of frame payloads per incoming segment, a per-segment
// generation counter, and the proof obligation that makes two enough.
//
// A peer can only send its round-(c+2) frame after it finished round
// c+1, which required this shard's round-(c+1) frame, which this shard
// only sends after consuming round c.  So when a round-r frame
// arrives, consumed >= r-2: the generation buffer it lands in (parity
// of r) was consumed at round r-2 and is free.  deliver enforces both
// invariants — frames must arrive in per-segment round order, and
// never more than two rounds past the consumer — and rejects
// violations as stale-generation protocol errors rather than
// corrupting a live buffer.
type staging struct {
	mu        sync.Mutex
	notify    chan struct{}
	arrived   []uint32 // per segment, last delivered round
	arrivedAt []time.Time
	consumed  uint32
	buf       [2][][]byte
	typ       [2][]byte
}

func newStaging(nseg int) *staging {
	st := &staging{
		notify:    make(chan struct{}, 1),
		arrived:   make([]uint32, nseg),
		arrivedAt: make([]time.Time, nseg),
	}
	for g := range st.buf {
		st.buf[g] = make([][]byte, nseg)
		st.typ[g] = make([]byte, nseg)
	}
	return st
}

// deliver stages one data frame for segment seg.
func (st *staging) deliver(seg int, f *frame) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seg < 0 || seg >= len(st.arrived) {
		return fmt.Errorf("%w: frame for unknown segment %d", ErrBadFrame, seg)
	}
	switch {
	case f.round != st.arrived[seg]+1:
		return fmt.Errorf("%w: segment %d got round %d after round %d (stale generation)",
			ErrBadFrame, seg, f.round, st.arrived[seg])
	case f.round > st.consumed+2:
		return fmt.Errorf("%w: segment %d round %d overruns consumer at round %d",
			ErrBadFrame, seg, f.round, st.consumed)
	}
	g := f.round & 1
	st.arrived[seg] = f.round
	st.arrivedAt[seg] = time.Now()
	st.buf[g][seg] = f.payload
	st.typ[g][seg] = f.typ
	select {
	case st.notify <- struct{}{}:
	default:
	}
	return nil
}

// take hands the consumer segment seg's payload for round r and drops
// the staged reference.
func (st *staging) take(seg int, round int) (typ byte, payload []byte) {
	g := round & 1
	st.mu.Lock()
	typ, payload = st.typ[g][seg], st.buf[g][seg]
	st.buf[g][seg] = nil
	st.mu.Unlock()
	return typ, payload
}

// doneRound publishes that the consumer has fully applied round r,
// freeing r's generation for round r+2 frames.
func (st *staging) doneRound(round int) {
	st.mu.Lock()
	st.consumed = uint32(round)
	st.mu.Unlock()
}

// shardExec executes one shard of one run: the sharded engine's round
// loop with the halo exchange replaced by frames.  One goroutine per
// shard; all fields are set before run() and constant during it.
type shardExec struct {
	plan  *ShardPlan
	peers map[int32]*frameConn // data conns, keyed by peer shard id
	runID uint32

	port  []sim.PortProgram      // local order (plan.Nodes), port model
	bcast []sim.BroadcastProgram // local order, broadcast model

	rounds       int
	noWire       bool
	scrambleSeed int64
	budget       int
	ctx          context.Context
	timeout      time.Duration

	stage *staging
	rs    *runState
	mx    *Metrics
	waits []*PairWait // per In segment, may be nil

	// trace, when non-nil, records per-round phase timings into its
	// preallocated arena; every time.Now() below is gated on it so an
	// untraced run pays nothing.  The optional histograms mirror the
	// same observations into the worker's /metrics surface.
	trace                              *obs.ShardTrace
	hCompute, hSerialize, hWait, hSend *obs.Histogram

	// Wire-path decision, taken by sim.PlanWire exactly as the
	// in-process kernel takes it.  Programs are uniform across nodes,
	// so every shard reaches the same verdict and the cluster stays in
	// lockstep on the path taken.
	wire sim.WirePlan

	msgs, bytes int64
}

// run executes the shard's rounds.  On any failure the shared runState
// carries the authoritative error; the return value echoes it.
func (e *shardExec) run() error {
	p := e.plan
	inboxLen := p.inboxLen()
	maxDeg := 0
	for i := range p.Nodes {
		if d := int(p.Off[i+1] - p.Off[i]); d > maxDeg {
			maxDeg = d
		}
	}
	e.wire = sim.PlanWire(e.port, e.rounds, e.noWire)

	var inbox []sim.Message
	var halo [2][]sim.Message
	var inboxW []uint64
	var haloW [2][]uint64
	var outW, laneScratch []uint64
	if e.wire.Codec == nil || e.wire.BoxedRounds {
		inbox = make([]sim.Message, inboxLen)
		halo[0] = make([]sim.Message, p.HaloOut)
		halo[1] = make([]sim.Message, p.HaloOut)
	}
	if e.wire.Codec != nil {
		inboxW = make([]uint64, e.wire.MaxW*inboxLen)
		haloW[0] = make([]uint64, e.wire.MaxW*p.HaloOut)
		haloW[1] = make([]uint64, e.wire.MaxW*p.HaloOut)
		outW = make([]uint64, e.wire.MaxW*maxDeg)
		laneScratch = make([]uint64, e.wire.MaxW*inboxLen)
	}
	var flushBuf []byte

	var deadline time.Time
	var hasDeadline bool
	if e.ctx != nil {
		deadline, hasDeadline = e.ctx.Deadline()
	}

	for round := 1; round <= e.rounds; round++ {
		// The network barrier is the contract point for every
		// run-level control: peer failure, context, deadline, budget.
		if e.rs.closed() {
			return e.rs.failure()
		}
		if e.ctx != nil {
			if cerr := e.ctx.Err(); cerr != nil {
				e.rs.fail(cerr, prioSemantic)
				return cerr
			}
			if hasDeadline && !time.Now().Before(deadline) {
				e.rs.fail(context.DeadlineExceeded, prioSemantic)
				return context.DeadlineExceeded
			}
		}
		if e.budget > 0 && round > e.budget {
			e.rs.fail(sim.ErrRoundBudget, prioSemantic)
			return sim.ErrRoundBudget
		}
		curW := 0
		if e.wire.Codec != nil {
			curW = e.wire.Codec.WireWords(round)
		}
		gen := round & 1

		rec := e.trace != nil && e.trace.Sample(round)
		var computeNS, serializeNS, waitNS, sendNS int64
		var mark time.Time
		if rec {
			mark = time.Now()
		}

		// Send phase: step the shard's nodes, scattering local
		// messages straight into the inbox and cut messages into this
		// generation's halo-out buffer.
		switch {
		case e.bcast != nil:
			// Broadcast always ships boxed between processes (the
			// interned table is shared memory); the Stats fold is per
			// node, identical to every other engine.
			for i := range p.Nodes {
				m := e.bcast[i].Send(round)
				base, end := p.Off[i], p.Off[i+1]
				for _, rt := range p.Route[base:end] {
					if rt >= 0 {
						inbox[rt] = m
					} else {
						halo[gen][^rt] = m
					}
				}
				if m != nil {
					deg := int64(end - base)
					e.msgs += deg
					if sz, ok := m.(sim.Sizer); ok {
						e.bytes += deg * int64(sz.WireSize())
					}
				}
			}
		case curW > 0:
			hw := haloW[gen]
			for i := range p.Nodes {
				base := p.Off[i]
				deg := int(p.Off[i+1] - base)
				lanes := outW[:deg*curW]
				m, b, ok := e.wire.Progs[i].SendWire(round, lanes)
				if !ok {
					// A lane could not hold its value; receivers would
					// decode garbage, so nothing is flushed and the
					// caller reruns boxed (sim.ErrWireOverflow).
					e.rs.fail(sim.ErrWireOverflow, prioSemantic)
					return sim.ErrWireOverflow
				}
				e.msgs += m
				e.bytes += b
				routes := p.Route[base:p.Off[i+1]]
				for pt, rt := range routes {
					if lanes[curW*pt] == 0 {
						continue // idle lane, see WirePortProgram
					}
					lane := lanes[curW*pt : curW*pt+curW]
					if rt >= 0 {
						copy(inboxW[curW*int(rt):], lane)
					} else {
						copy(hw[curW*int(^rt):], lane)
					}
				}
			}
		default:
			for i := range p.Nodes {
				out := e.port[i].Send(round)
				base := p.Off[i]
				if int32(len(out)) != p.Off[i+1]-base {
					panic(fmt.Sprintf("dist: node %d sent %d messages, degree %d",
						p.Nodes[i], len(out), p.Off[i+1]-base))
				}
				routes := p.Route[base:p.Off[i+1]]
				for pt, m := range out {
					if rt := routes[pt]; rt >= 0 {
						inbox[rt] = m
					} else {
						halo[gen][^rt] = m
					}
					if m != nil {
						e.msgs++
						if sz, ok := m.(sim.Sizer); ok {
							e.bytes += int64(sz.WireSize())
						}
					}
				}
			}
		}

		if rec {
			now := time.Now()
			computeNS += now.Sub(mark).Nanoseconds()
			mark = now
		}

		// Flush: one frame per outgoing cut-edge block.  Wire rounds
		// ship the raw lane words verbatim (stale words included —
		// round stamps make them inert); boxed rounds ship a sparse
		// gob of the non-nil messages.
		wireData := curW > 0 && e.bcast == nil
		for _, sg := range p.Out {
			f := frame{
				src: uint16(p.ID), dst: uint16(sg.Dst),
				run: e.runID, round: uint32(round),
			}
			if wireData {
				f.typ = fLanes
				flushBuf = lanesToBytes(flushBuf[:0],
					haloW[gen][curW*int(sg.Off):curW*int(sg.Off+sg.Len)])
				f.payload = flushBuf
			} else {
				f.typ = fBoxed
				pl, err := encodeBoxed(halo[gen][sg.Off : sg.Off+sg.Len])
				if err != nil {
					e.rs.fail(err, prioSemantic)
					return err
				}
				f.payload = pl
			}
			if rec {
				now := time.Now()
				serializeNS += now.Sub(mark).Nanoseconds()
				mark = now
			}
			pc := e.peers[sg.Dst]
			if pc == nil {
				err := fmt.Errorf("dist: shard %d has no connection to peer %d", p.ID, sg.Dst)
				e.rs.fail(err, prioIO)
				return err
			}
			if err := pc.write(&f); err != nil {
				err = fmt.Errorf("dist: shard %d sending round %d to peer %d: %w",
					p.ID, round, sg.Dst, err)
				e.rs.fail(err, prioIO)
				return err
			}
			if rec {
				now := time.Now()
				sendNS += now.Sub(mark).Nanoseconds()
				mark = now
			}
		}

		// Per-pair network barrier: wait only for the peers this shard
		// actually receives from.
		if err := e.waitFrames(round); err != nil {
			return err
		}
		if rec {
			now := time.Now()
			waitNS = now.Sub(mark).Nanoseconds()
			mark = now
		}

		// Apply the staged segments, then run the receive phase.
		for si := range p.In {
			in := &p.In[si]
			typ, pl := e.stage.take(si, round)
			if wireData {
				if typ != fLanes {
					err := fmt.Errorf("%w: segment from shard %d round %d: boxed frame on a wire round",
						ErrBadFrame, in.Src, round)
					e.rs.fail(err, prioIO)
					return err
				}
				words := laneScratch[:curW*len(in.Slots)]
				if err := bytesToLanes(words, pl); err != nil {
					e.rs.fail(err, prioIO)
					return err
				}
				for i, slot := range in.Slots {
					copy(inboxW[curW*int(slot):curW*int(slot)+curW], words[curW*i:curW*i+curW])
				}
			} else {
				if typ != fBoxed {
					err := fmt.Errorf("%w: segment from shard %d round %d: wire frame on a boxed round",
						ErrBadFrame, in.Src, round)
					e.rs.fail(err, prioIO)
					return err
				}
				bs, err := decodeBoxed(pl, len(in.Slots))
				if err != nil {
					e.rs.fail(err, prioIO)
					return err
				}
				for _, slot := range in.Slots {
					inbox[slot] = nil
				}
				for k, pos := range bs.Pos {
					inbox[in.Slots[pos]] = bs.Msgs[k]
				}
			}
		}
		e.stage.doneRound(round)
		if rec {
			// Staged-segment apply is deserialization work: the lane or
			// boxed decode mirror of the flush above.
			now := time.Now()
			serializeNS += now.Sub(mark).Nanoseconds()
			mark = now
		}

		switch {
		case e.bcast != nil:
			for i := range p.Nodes {
				in := inbox[p.Off[i]:p.Off[i+1]]
				if e.scrambleSeed != 0 {
					sim.Scramble(in, e.scrambleSeed, int(p.Nodes[i]), round)
				}
				e.bcast[i].Recv(round, in)
			}
		case curW > 0:
			for i := range p.Nodes {
				e.wire.Progs[i].RecvWire(round, inboxW[curW*int(p.Off[i]):curW*int(p.Off[i+1])])
			}
		default:
			for i := range p.Nodes {
				e.port[i].Recv(round, inbox[p.Off[i]:p.Off[i+1]])
			}
		}
		if rec {
			computeNS += time.Since(mark).Nanoseconds()
			e.trace.Record(round, computeNS, serializeNS, waitNS, sendNS)
			if e.hCompute != nil {
				e.hCompute.Observe(float64(computeNS) * 1e-9)
				e.hSerialize.Observe(float64(serializeNS) * 1e-9)
				e.hWait.Observe(float64(waitNS) * 1e-9)
				e.hSend.Observe(float64(sendNS) * 1e-9)
			}
		}
		if e.mx != nil {
			e.mx.Rounds.Add(1)
		}
	}
	return e.rs.failure()
}

// waitFrames blocks until every incoming segment has round r staged,
// attributing the wait to the peers that were still missing when the
// wait began.  It unblocks on frame arrival, run failure, context
// cancellation, or the frame timeout — a peer that hangs (as opposed
// to dying, which surfaces as a reader error) cannot wedge the run.
func (e *shardExec) waitFrames(round int) error {
	if len(e.plan.In) == 0 {
		return nil
	}
	st := e.stage
	t0 := time.Now()
	var missing []int
	first := true

	var timer *time.Timer
	var timeout <-chan time.Time
	if e.timeout > 0 {
		timer = time.NewTimer(e.timeout)
		timeout = timer.C
		defer timer.Stop()
	}
	var ctxDone <-chan struct{}
	if e.ctx != nil {
		ctxDone = e.ctx.Done()
	}

	for {
		st.mu.Lock()
		all := true
		for i, a := range st.arrived {
			if a < uint32(round) {
				all = false
				if first {
					missing = append(missing, i)
				}
			}
		}
		if all {
			if e.waits != nil {
				for _, i := range missing {
					if d := st.arrivedAt[i].Sub(t0); d > 0 {
						e.waits[i].observe(d)
					}
				}
			}
			st.mu.Unlock()
			return nil
		}
		st.mu.Unlock()
		first = false

		select {
		case <-st.notify:
		case <-e.rs.cancel:
			err := e.rs.failure()
			if err == nil {
				err = errAborted
			}
			return err
		case <-ctxDone:
			err := e.ctx.Err()
			e.rs.fail(err, prioSemantic)
			return err
		case <-timeout:
			err := fmt.Errorf("dist: shard %d timed out after %v waiting for round-%d frames from %s",
				e.plan.ID, e.timeout, round, e.missingPeers(round))
			e.rs.fail(err, prioIO)
			return err
		}
	}
}

func (e *shardExec) missingPeers(round int) string {
	st := e.stage
	st.mu.Lock()
	defer st.mu.Unlock()
	s := ""
	for i, a := range st.arrived {
		if a < uint32(round) {
			if s != "" {
				s += ","
			}
			s += fmt.Sprintf("shard %d", e.plan.In[i].Src)
		}
	}
	if s == "" {
		s = "(none)"
	}
	return s
}
