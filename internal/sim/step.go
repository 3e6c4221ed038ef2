package sim

import (
	"fmt"
	"math"

	"anoncover/internal/shard"
)

// ShardStep is one shard's round step, for every model and delivery
// path: port-model programs on wire lanes or boxed, and broadcast
// programs.  The in-process kernel (runSharded) runs one per shard and
// hands each step the halo-out buffers of its source shards straight
// from memory; the distributed shard executor (internal/dist) runs one
// per worker and carries the same buffers as TCP frames, so programs
// sleep (below) the same way in both.  Either way a round is
//
//	Send(round)      every node sends; local messages land in the
//	                 shard's inbox, cut messages in HaloOut(round)
//	Drain(seg, src)  once per In segment, after its source shard sent
//	Recv(round)      every node receives its inbox slice
//
// Halo-out buffers alternate by round parity (see shard.Topology), so
// a shard may send round r+1 while a slow peer still drains round r.
// Programs are held in local order: node i of the step is
// sh.Nodes[i].
//
// A broadcast node sends one value per round, so the step keeps one
// value slot per node instead of an inbox slot per port.  Send writes
// each node's slot once, then fills the halo-out buffer in slot order
// from the value slots through a halo sender table (both tables are
// derived from Route); Drain lands cut values in the slots past the
// nodes', one per In slot; Recv gathers each node's messages from the
// slots through a sender table that maps every inbox slot to the slot
// feeding it.  Only the step's own Recv reads the value slots, so
// unlike the halo-out buffers they need no second parity.  The
// gathered copy is what Recv scrambles, so a scramble never moves a
// value between slots.
//
// A step whose programs are all Sleepers is activity-sparse.  After a
// node's Recv(r) the step records SleepUntil(r) as the node's due round
// and skips its Send and Recv until then.  Wake rule: a live message —
// a non-nil Message, or a lane whose word 0 is non-zero — wakes the
// node it lands at, for that round's Recv only.  Send stamps same-shard
// wakes as it sends; Drain stamps cut-edge wakes from the segment it
// lands, so a fleet worker finds them in the decoded frame.  A step
// with no node due and none woken skips Send and Recv in O(1).  Slot
// rule: a skipped node writes nothing, so whatever it last wrote must
// already read as silent.  When a node that sent round r sleeps past
// r+1, its halo-out slots of parity r+1 are cleared at its Recv(r)
// (nobody reads them any more); its parity-r halo-out slots, its boxed
// same-shard inbox slots and its broadcast value slot are still being
// read in that receive phase, so they are cleared at the start of
// Send(r+1).  Cleared means nil on the boxed paths and a zero word 0 on
// the wire path, where Send also writes a zero word 0 for every idle
// cut lane, so that a non-zero word 0 reaching Drain is always a live
// lane of this round.  Wire slots in the shard's own inbox are never
// cleared: wakes there are stamped at the scatter, and a Recv that runs
// anyway rejects stale lanes by their round stamps (see
// WirePortProgram).  A broadcast step refills its halo-out buffer from
// the value slots in every Send, so of a broadcast node's slots only
// its value slot is ever cleared.
type ShardStep struct {
	sh       *shard.Shard
	port     []PortProgram      // nil in the broadcast model
	wire     []WirePortProgram  // wire view of port; nil when fully boxed
	codec    WireCodec          // lane widths per round; nil when fully boxed
	bcast    []BroadcastProgram // nil in the port model
	scramble int64
	round    int // the round last sent
	w        int // lane width of the round last sent; 0 = boxed
	maxW     int // the run's lane width on wire rounds (one width; see WirePortProgram)

	// Sleep state, used when sleeping is set.  Every due round lies in
	// [r, maxDue] at round r, so maxDue <= r means every node runs r in
	// full and no wake needs stamping.
	sleeping bool
	rounds   int32 // the run's length; promises past it read rounds+1
	minDue   int32 // earliest due round of any node
	maxDue   int32 // latest due round of any node
	woke     int32 // last round a live message woke one of the nodes

	// haloLive[par] is set while the broadcast halo-out buffer of
	// parity par may hold a non-nil value; one that holds none and gets
	// none is not refilled.
	haloLive [2]bool
	stepBufs
}

// stepBufs are a step's buffers; a pooled run hands them on to the
// next run's step.
type stepBufs struct {
	inbox  []Message
	out    [2][]Message // halo-out, by round parity
	inboxW []uint64
	outW   [2][]uint64
	lanes  []uint64 // one node's SendWire scratch

	// Broadcast model: the value slots (one per node, then one per In
	// slot), the sender table (the value slot feeding each inbox slot),
	// each In segment's first value slot, the halo sender table (the
	// node feeding each halo-out slot), and one node's gather scratch.
	vals    []Message
	src     []int32
	inBase  []int32
	haloSrc []int32
	gather  []Message
	routed  *shard.Shard // the shard src, inBase and haloSrc are for

	// Sleep bookkeeping, per node, and the node owning each inbox slot.
	sleepers []Sleeper
	due      []int32 // the node runs Send and Recv in round due[i]
	wake     []int32 // the node runs only Recv in round wake[i]
	slept    []int32 // nodes whose slots the next Send clears
	owner    []int32
	owned    *shard.Shard // the shard owner is for
}

// Halo is a segment of halo-out messages in slot order: Words on a
// wire round (Width words per slot), Msgs on a boxed round.
type Halo struct {
	Msgs  []Message
	Words []uint64
}

// NewShardStep returns the step of shard sh for a run of rounds rounds
// over its programs in local order (exactly one of port and bcast is
// non-nil), with freshly allocated buffers.  noWire and scrambleSeed
// act as Options.NoWire and Options.ScrambleSeed do.
func NewShardStep(sh *shard.Shard, port []PortProgram, bcast []BroadcastProgram, rounds int, noWire bool, scrambleSeed int64) *ShardStep {
	plan := planWire(port, rounds, noWire, make([]WirePortProgram, len(port)))
	maxDeg := 0
	for i := range sh.Nodes {
		maxDeg = max(maxDeg, int(sh.Off[i+1]-sh.Off[i]))
	}
	s := makeStep(sh, port, plan.progs, bcast, plan, scrambleSeed, maxDeg, rounds, stepBufs{})
	return &s
}

// makeStep returns the step of shard sh, sizing b for the run: value
// slots and routing tables in the broadcast model, message buffers
// when some port round travels boxed, word buffers when some round
// travels as lanes.  The word buffers are zeroed, because the
// idle-lane convention (WirePortProgram) tells live lanes from stale
// slots by round stamps, which a recycled buffer could replay at the
// same round numbers.  The step sleeps when every one of its programs
// is a Sleeper (see ShardStep).
func makeStep(sh *shard.Shard, port []PortProgram, wire []WirePortProgram, bcast []BroadcastProgram,
	plan wirePlan, scramble int64, maxDeg, rounds int, b stepBufs) ShardStep {
	n, h := sh.InboxLen(), sh.HaloOut
	switch {
	case bcast != nil:
		b.out = [2][]Message{grow(b.out[0], h), grow(b.out[1], h)}
		b.gather = grow(b.gather, maxDeg)
		if b.routed != sh {
			b.routeBcast(sh)
		}
	case plan.codec == nil || plan.boxedRounds:
		b.inbox = grow(b.inbox, n)
		b.out = [2][]Message{grow(b.out[0], h), grow(b.out[1], h)}
	}
	if w := plan.maxW; w > 0 {
		b.inboxW = grow(b.inboxW, w*n)
		b.outW = [2][]uint64{grow(b.outW[0], w*h), grow(b.outW[1], w*h)}
		clear(b.inboxW)
		clear(b.outW[0])
		clear(b.outW[1])
		b.lanes = grow(b.lanes, w*maxDeg)
	}
	s := ShardStep{sh: sh, port: port, wire: wire, codec: plan.codec, bcast: bcast, scramble: scramble, maxW: plan.maxW, stepBufs: b}
	if rounds < math.MaxInt32 {
		s.armSleep(rounds)
	}
	return s
}

// routeBcast derives the broadcast tables of sh from its route table
// and In segments: a same-shard inbox slot and a halo-out slot are fed
// by the value slot of the node that routes to them, cut inbox slots
// by the value slots Drain lands them in.  They depend on sh alone, so
// a pooled step keeps them from run to run.
func (b *stepBufs) routeBcast(sh *shard.Shard) {
	b.routed = sh
	nodes := len(sh.Nodes)
	b.src = grow(b.src, sh.InboxLen())
	clear(b.src)
	b.inBase = grow(b.inBase, len(sh.In))
	pos := int32(nodes)
	for si := range sh.In {
		b.inBase[si] = pos
		for _, slot := range sh.In[si].Slots {
			b.src[slot] = pos
			pos++
		}
	}
	b.vals = grow(b.vals, int(pos))
	b.haloSrc = grow(b.haloSrc, sh.HaloOut)
	clear(b.haloSrc)
	for i := range nodes {
		for _, rt := range sh.Route[sh.Off[i]:sh.Off[i+1]] {
			if rt >= 0 {
				b.src[rt] = int32(i)
			} else {
				b.haloSrc[^rt] = int32(i)
			}
		}
	}
}

// armSleep turns sleeping on when every program is a Sleeper, with
// every node due in round 1.  The round stamps are reset for every run,
// since a stale stamp would wake or skip a node.
func (s *ShardStep) armSleep(rounds int) {
	var ok bool
	if s.bcast != nil {
		s.sleepers, ok = asSleepers(s.sleepers, s.bcast)
	} else {
		s.sleepers, ok = asSleepers(s.sleepers, s.port)
	}
	if !ok {
		return
	}
	sh, n := s.sh, len(s.sleepers)
	if s.owned != sh {
		s.owned = sh
		s.owner = grow(s.owner, sh.InboxLen())
		for i := range n {
			for slot := sh.Off[i]; slot < sh.Off[i+1]; slot++ {
				s.owner[slot] = int32(i)
			}
		}
	}
	s.due = grow(s.due, n)
	s.wake = grow(s.wake, n)
	for i := range s.due {
		s.due[i] = 1
	}
	clear(s.wake)
	if cap(s.slept) < n {
		s.slept = make([]int32, 0, n)
	}
	s.slept = s.slept[:0]
	s.sleeping, s.rounds = true, int32(rounds)
	s.minDue, s.maxDue, s.woke = 1, 1, 0
}

// asSleepers returns progs as Sleepers in buf, or false (and buf
// cleared) when one of them is not.
func asSleepers[T any](buf []Sleeper, progs []T) ([]Sleeper, bool) {
	buf = grow(buf, len(progs))
	for i, p := range progs {
		sl, ok := any(p).(Sleeper)
		if !ok {
			clear(buf)
			return buf, false
		}
		buf[i] = sl
	}
	return buf, true
}

// quiet reports whether the step has nothing to do in round: it sleeps,
// no node is due and no slot is left to clear.  When every step of a
// run is quiet, nothing is sent, so nothing can wake a node either,
// and the round may be skipped whole.
func (s *ShardStep) quiet(round int) bool {
	return s.sleeping && s.minDue > int32(round) && len(s.slept) == 0
}

// Width returns the lane width in words of the round last sent, or 0
// when it travels boxed.
func (s *ShardStep) Width() int { return s.w }

// HaloOut returns the halo-out buffer Send filled for round; segment
// Out[j] of the shard occupies its slots [Off, Off+Len).
func (s *ShardStep) HaloOut(round int) Halo {
	if s.w > 0 {
		return Halo{Words: s.outW[round&1]}
	}
	return Halo{Msgs: s.out[round&1]}
}

// seg returns slots [lo, lo+n) of h for lanes of w words.
func (h Halo) seg(lo, n, w int) Halo {
	if w > 0 {
		return Halo{Words: h.Words[w*lo : w*(lo+n)]}
	}
	return Halo{Msgs: h.Msgs[lo : lo+n]}
}

// Send runs round's send phase and returns the round's message and
// byte tallies.  A broadcast node's one value goes to its value slot
// and from there to its halo-out slots, and its tallies fold per node
// (degree × size), which sums to the per-half-edge count the port
// model makes.  The error is ErrWireOverflow when a node's value does
// not fit its lane; the round is then unusable.
func (s *ShardStep) Send(round int) (msgs, bytes int64, err error) {
	sh := s.sh
	s.round = round
	s.w = 0
	if s.codec != nil {
		s.w = s.codec.WireWords(round)
	}
	rd := int32(round)
	stamp := false // stamp same-shard wakes
	if s.sleeping {
		// Nodes that fell asleep at Recv(round-1): every read of what
		// they sent then is done.
		s.clearSlots(s.slept, (round+1)&1, true)
		s.slept = s.slept[:0]
		if s.minDue > rd {
			if s.bcast != nil {
				s.fillHalo(round&1, false)
			}
			return 0, 0, nil
		}
		stamp = s.maxDue > rd
	}
	switch {
	case s.bcast != nil:
		sleeping, due, vals := s.sleeping, s.due, s.vals
		for i, p := range s.bcast {
			if sleeping && due[i] > rd {
				continue
			}
			m := p.Send(round)
			vals[i] = m
			if m == nil {
				continue
			}
			lo, hi := sh.Off[i], sh.Off[i+1]
			deg := int64(hi - lo)
			msgs += deg
			if sz, ok := m.(Sizer); ok {
				bytes += deg * int64(sz.WireSize())
			}
			if stamp {
				for _, rt := range sh.Route[lo:hi] {
					if rt >= 0 {
						s.wakeAt(rt, rd)
					}
				}
			}
		}
		s.fillHalo(round&1, msgs > 0)
	case s.w > 0:
		// Encode each node's lanes, then scatter every live lane as a
		// word copy through the route table.  Idle lanes (first word
		// zero) are not scattered, except that an idle cut lane zeroes
		// its halo word 0; see WirePortProgram and ShardStep.
		wid := s.w
		inboxW, hw := s.inboxW, s.outW[round&1]
		for i, prog := range s.wire {
			if s.sleeping && s.due[i] > rd {
				continue
			}
			routes := sh.Route[sh.Off[i]:sh.Off[i+1]]
			lanes := s.lanes[:len(routes)*wid]
			m, b, ok := prog.SendWire(round, lanes)
			if !ok {
				return msgs, bytes, ErrWireOverflow
			}
			msgs += m
			bytes += b
			switch wid {
			case 1:
				for p, rt := range routes {
					if lanes[p] == 0 {
						if rt < 0 {
							hw[^rt] = 0
						}
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
						if rt < 0 {
							hw[2*^rt] = 0
						}
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
						if rt < 0 {
							hw[3*^rt] = 0
						}
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
						if rt < 0 {
							hw[wid*int(^rt)] = 0
						}
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
			if stamp {
				for p, rt := range routes {
					if rt >= 0 && lanes[wid*p] != 0 {
						s.wakeAt(rt, rd)
					}
				}
			}
		}
	default:
		inbox, out := s.inbox, s.out[round&1]
		for i, prog := range s.port {
			if s.sleeping && s.due[i] > rd {
				continue
			}
			sent := prog.Send(round)
			routes := sh.Route[sh.Off[i]:sh.Off[i+1]]
			if len(sent) != len(routes) {
				panic(fmt.Sprintf("sim: node %d sent %d messages, degree %d",
					sh.Nodes[i], len(sent), len(routes)))
			}
			for p, m := range sent {
				if rt := routes[p]; rt >= 0 {
					inbox[rt] = m
				} else {
					out[^rt] = m
				}
				count(m, &msgs, &bytes)
			}
			if stamp {
				for p, rt := range routes {
					if rt >= 0 && sent[p] != nil {
						s.wakeAt(rt, rd)
					}
				}
			}
		}
	}
	return msgs, bytes, nil
}

// fillHalo refills the broadcast halo-out buffer of parity par from
// the value slots, where every node that did not send this round
// holds nil.  live reports whether some node sent a non-nil value.
func (s *ShardStep) fillHalo(par int, live bool) {
	if !live && !s.haloLive[par] {
		return
	}
	out, vals := s.out[par], s.vals
	for h, i := range s.haloSrc {
		out[h] = vals[i]
	}
	s.haloLive[par] = live
}

// clearSlots makes the outgoing slots of nodes read as silent: with
// local, their broadcast value slots or their boxed slots in the
// shard's own inbox, and in the port model their halo-out slots of
// parity par (nil, and a zero lane word 0).
func (s *ShardStep) clearSlots(nodes []int32, par int, local bool) {
	if s.bcast != nil {
		if local {
			for _, i := range nodes {
				s.vals[i] = nil
			}
		}
		return
	}
	sh, out := s.sh, s.out[par]
	outW, w := s.outW[par], s.maxW
	for _, i := range nodes {
		for _, rt := range sh.Route[sh.Off[i]:sh.Off[i+1]] {
			switch {
			case rt < 0 && out != nil:
				out[^rt] = nil
			case rt >= 0 && local && s.inbox != nil:
				s.inbox[rt] = nil
			}
			if rt < 0 && w > 0 {
				outW[w*int(^rt)] = 0
			}
		}
	}
}

// Drain lands incoming segment seg of the round last sent: message i
// of src (lane i on a wire round) goes to slot In[seg].Slots[i], or to
// the segment's i-th value slot in the broadcast model.  On a sleeping
// step every live message also wakes the node it lands at.
func (s *ShardStep) Drain(seg int, src Halo) {
	slots := s.sh.In[seg].Slots
	switch w := s.w; {
	case s.bcast != nil:
		copy(s.vals[s.inBase[seg]:], src.Msgs[:len(slots)])
	case w == 0:
		inbox, msgs := s.inbox, src.Msgs[:len(slots)]
		for i, slot := range slots {
			inbox[slot] = msgs[i]
		}
	case w == 1:
		inboxW, words := s.inboxW, src.Words[:len(slots)]
		for i, slot := range slots {
			inboxW[slot] = words[i]
		}
	case w == 2:
		inboxW, words := s.inboxW, src.Words[:2*len(slots)]
		for i, slot := range slots {
			inboxW[2*slot] = words[2*i]
			inboxW[2*slot+1] = words[2*i+1]
		}
	default:
		for i, slot := range slots {
			copy(s.inboxW[w*int(slot):w*int(slot)+w], src.Words[w*i:w*i+w])
		}
	}
	rd := int32(s.round)
	if !s.sleeping || s.maxDue <= rd {
		return
	}
	if w := s.w; w > 0 {
		for i, slot := range slots {
			if src.Words[w*i] != 0 {
				s.wakeAt(slot, rd)
			}
		}
		return
	}
	for i, slot := range slots {
		if src.Msgs[i] != nil {
			s.wakeAt(slot, rd)
		}
	}
}

// wakeAt wakes, for round rd, the node whose inbox holds slot.
func (s *ShardStep) wakeAt(slot, rd int32) {
	s.wake[s.owner[slot]], s.woke = rd, rd
}

// Recv runs round's receive phase over the drained inbox.  Broadcast
// inboxes are gathered from the value slots and scrambled when a
// scramble seed is set, exactly as every other engine scrambles them.
func (s *ShardStep) Recv(round int) {
	sh := s.sh
	switch {
	case s.sleeping:
		s.recvSleeping(round)
	case s.bcast != nil:
		for i, p := range s.bcast {
			p.Recv(round, s.gathered(i, round))
		}
	case s.w > 0:
		w := s.w
		for i, p := range s.wire {
			p.RecvWire(round, s.inboxW[w*int(sh.Off[i]):w*int(sh.Off[i+1])])
		}
	default:
		for i, p := range s.port {
			p.Recv(round, s.inbox[sh.Off[i]:sh.Off[i+1]])
		}
	}
}

// gathered returns broadcast node i's round inbox: the value feeding
// each of its slots, in port order, then scrambled when a seed is set.
func (s *ShardStep) gathered(i, round int) []Message {
	sh, vals := s.sh, s.vals
	src := s.src[sh.Off[i]:sh.Off[i+1]]
	in := s.gather[:len(src)]
	for p, e := range src {
		in[p] = vals[e]
	}
	if s.scramble != 0 {
		scramble(in, s.scramble, int(sh.Nodes[i]), round)
	}
	return in
}

// recvSleeping is the receive phase of a sleeping step: every due or
// woken node receives as on the dense path and is asked when it must
// run next.
func (s *ShardStep) recvSleeping(round int) {
	rd := int32(round)
	if s.woke != rd && s.minDue > rd {
		return
	}
	sh, w, due, wake := s.sh, s.w, s.due, s.wake
	minDue, maxDue := int32(math.MaxInt32), int32(0)
	for i, d := range due {
		if d > rd && wake[i] != rd {
			minDue, maxDue = min(minDue, d), max(maxDue, d)
			continue
		}
		lo, hi := int(sh.Off[i]), int(sh.Off[i+1])
		switch {
		case s.bcast != nil:
			s.bcast[i].Recv(round, s.gathered(i, round))
		case w > 0:
			s.wire[i].RecvWire(round, s.inboxW[w*lo:w*hi])
		default:
			s.port[i].Recv(round, s.inbox[lo:hi])
		}
		until := s.sleepers[i].SleepUntil(round)
		if until <= round {
			panic(fmt.Sprintf("sim: node %d: SleepUntil(%d) = %d, want a later round", sh.Nodes[i], round, until))
		}
		nd := s.rounds + 1
		if until <= int(s.rounds) {
			nd = int32(until)
		}
		if d <= rd && nd > rd+1 {
			// The node sent this round and now sleeps past the next.
			s.slept = append(s.slept, int32(i))
		}
		due[i] = nd
		minDue, maxDue = min(minDue, nd), max(maxDue, nd)
	}
	s.minDue, s.maxDue = minDue, maxDue
	s.clearSlots(s.slept, (round+1)&1, false)
}
