package sim

import (
	"fmt"

	"anoncover/internal/shard"
)

// ShardStep is one shard's round step for the port model (wire lanes
// and boxed) and the boxed broadcast model.  The in-process kernel
// (runSharded) runs one per shard and hands each step the halo-out
// buffers of its source shards straight from memory; the distributed
// shard executor (internal/dist) runs one per worker and carries the
// same buffers as TCP frames.  Either way a round is
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
type ShardStep struct {
	sh       *shard.Shard
	port     []PortProgram      // nil in the broadcast model
	wire     []WirePortProgram  // wire view of port; nil when fully boxed
	codec    WireCodec          // lane widths per round; nil when fully boxed
	bcast    []BroadcastProgram // nil in the port model
	scramble int64
	w        int // lane width of the round last sent; 0 = boxed
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
	s := makeStep(sh, port, plan.progs, bcast, plan, scrambleSeed, maxDeg, stepBufs{})
	return &s
}

// makeStep returns the step of shard sh, sizing b for the run's plan:
// message buffers when some round travels boxed, word buffers when
// some round travels as lanes.  The word buffers are zeroed, because
// the idle-lane convention (WirePortProgram) tells live lanes from
// stale slots by round stamps, which a recycled buffer could replay at
// the same round numbers.
func makeStep(sh *shard.Shard, port []PortProgram, wire []WirePortProgram, bcast []BroadcastProgram,
	plan wirePlan, scramble int64, maxDeg int, b stepBufs) ShardStep {
	n, h := sh.InboxLen(), sh.HaloOut
	if plan.codec == nil || plan.boxedRounds {
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
	return ShardStep{sh: sh, port: port, wire: wire, codec: plan.codec, bcast: bcast, scramble: scramble, stepBufs: b}
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
// byte tallies.  A broadcast node's one value goes through Route to
// every port, and its tallies fold per node (degree × size), which
// sums to the per-half-edge count the port model makes.  The error is
// ErrWireOverflow when a node's value does not fit its lane; the
// round is then unusable.
func (s *ShardStep) Send(round int) (msgs, bytes int64, err error) {
	sh := s.sh
	s.w = 0
	if s.codec != nil {
		s.w = s.codec.WireWords(round)
	}
	switch {
	case s.bcast != nil:
		inbox, out := s.inbox, s.out[round&1]
		for i, p := range s.bcast {
			m := p.Send(round)
			lo, hi := sh.Off[i], sh.Off[i+1]
			for _, rt := range sh.Route[lo:hi] {
				if rt >= 0 {
					inbox[rt] = m
				} else {
					out[^rt] = m
				}
			}
			if m != nil {
				deg := int64(hi - lo)
				msgs += deg
				if sz, ok := m.(Sizer); ok {
					bytes += deg * int64(sz.WireSize())
				}
			}
		}
	case s.w > 0:
		// Encode each node's lanes, then scatter every live lane as a
		// word copy through the route table.  Idle lanes (first word
		// zero) are not scattered; see WirePortProgram.
		wid := s.w
		inboxW, hw := s.inboxW, s.outW[round&1]
		for i, prog := range s.wire {
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
		inbox, out := s.inbox, s.out[round&1]
		for i, prog := range s.port {
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
		}
	}
	return msgs, bytes, nil
}

// Drain lands incoming segment seg of the round last sent: message i
// of src (lane i on a wire round) goes to slot In[seg].Slots[i].
func (s *ShardStep) Drain(seg int, src Halo) {
	slots := s.sh.In[seg].Slots
	switch w := s.w; w {
	case 0:
		inbox, msgs := s.inbox, src.Msgs[:len(slots)]
		for i, slot := range slots {
			inbox[slot] = msgs[i]
		}
	case 1:
		inboxW, words := s.inboxW, src.Words[:len(slots)]
		for i, slot := range slots {
			inboxW[slot] = words[i]
		}
	case 2:
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
}

// Recv runs round's receive phase over the drained inbox.  Broadcast
// inboxes are scrambled first when a scramble seed is set, exactly as
// every other engine scrambles them.
func (s *ShardStep) Recv(round int) {
	sh := s.sh
	switch {
	case s.bcast != nil:
		for i, p := range s.bcast {
			in := s.inbox[sh.Off[i]:sh.Off[i+1]]
			if s.scramble != 0 {
				scramble(in, s.scramble, int(sh.Nodes[i]), round)
			}
			p.Recv(round, in)
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
