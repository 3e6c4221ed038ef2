// Wire-path adapter: the encoding of the algorithm's messages into the
// simulator's fixed-width word lanes (sim.WirePortProgram).
//
// The paper's dominant rounds exchange tiny values — a rational offer,
// a saturation bit, a palette of small colours, a star request/reply —
// so every wire round uses one fixed lane of
//
//	W = max(3, 1 + ⌈Δ/8⌉) words:   [header, payload...]
//
//	offer rounds    header | n, d        raw rational (2 words)
//	status rounds   header | bit
//	CV rounds       boxed — one uint64 colour per forest (WireWords = 0)
//	shift rounds    header | colours     one byte per forest
//	star rounds     header | n, d        a request or reply, mostly idle
//
// Word 0 of every lane is a header stamping the round number and the
// message kind; an idle lane's word 0 stays zero and the engine does
// not scatter it (sim.WirePortProgram's idle-lane convention).  In the
// 6Δ star rounds almost every port is silent, and most nodes do not
// even run: a node sleeps (Program.SleepUntil) through every batch in
// which it neither requests nor replies, and the kernel skips its Send
// and Recv unless a request or reply lands in one of its lanes.  The
// uniform width means word 0 of an inbox slot only ever holds a header
// (or a zero), so a star-round decoder can tell a live request from
// whatever an earlier round, or a sleeping sender, left in the slot by
// comparing the stamp; no clearing is ever needed.
//
// Rationals cross the wire as their exact fast-path representation
// (rational.Raw/FromRaw), so the decoded value is bit-identical to what
// the boxed path would have delivered.  A rational that has promoted
// past int64 has no raw form; SendWire then reports ok=false and the
// engine aborts with sim.ErrWireOverflow, after which Run rebuilds the
// programs and reruns boxed — the wire path never changes results, it
// only accelerates the runs whose values fit (Lemma 2 keeps them small
// for every realistic parameter range).
package edgepack

import (
	"math"
	"math/bits"

	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// Lane headers: round<<3 | kind.  Kind 0 is never a live header, so an
// idle lane's zero word 0 can never collide with one.
const (
	wireOffer = iota + 1
	wireStatus
	wireCols
	wireStarReq
	wireStarReply
)

func wireHdr(round int, kind uint64) uint64 { return uint64(round)<<3 | kind }

// maxWireDelta caps the declared Δ the wire path serves; past it the
// shift-round colour vector stops being "tiny" and the whole run stays
// boxed (which shares one colour slice across all ports for free).
const maxWireDelta = 120

// wireLaneWords returns the program's uniform lane width, or 0 when
// its parameters disqualify it from the wire path.
//
// The promotion gate: Phase I denominators divide products of the
// active degrees, so a single value's denominator is at most ~Δ^Δ, and
// a star-phase increment r(u)·r(v)/Σr multiplies three of them with a
// numerator on the order of Δ·W.  When that worst case cannot fit
// int64, offers and increments are likely to promote past the raw
// representation mid-run and the wire attempt would be wasted work —
// so such parameter ranges go straight to the boxed path.  The gate is
// a heuristic, not the correctness boundary: a run that slips through
// and still promotes aborts with sim.ErrWireOverflow and reruns boxed
// (Run handles it), losing only time.  In practice the gate admits
// Δ ≤ 6 at small weights and declines beyond, matching where promotion
// is actually observed.
func wireLaneWords(p sim.Params) int {
	delta := p.Delta
	if delta == 0 || delta > maxWireDelta {
		return 0
	}
	dbits := 0
	if delta > 1 {
		dbits = int(math.Ceil(float64(delta) * math.Log2(float64(delta))))
	}
	if 3*dbits+bits.Len64(uint64(p.W))+bits.Len(uint(delta))+4 > 62 {
		return 0
	}
	w := 1 + (delta+7)/8
	if w < 3 {
		w = 3
	}
	return w
}

// WireWords implements sim.WireCodec.  Widths depend only on the
// globally known schedule and parameters, as the codec contract
// requires.
func (p *Program) WireWords(round int) int {
	seg, _ := p.sched.Locate(round)
	if seg == segCV {
		return 0 // word colours, one per forest, travel boxed
	}
	return wireLaneWords(p.env.Params)
}

// SendWire implements sim.WirePortProgram.
func (p *Program) SendWire(round int, out []uint64) (msgs, bytes int64, ok bool) {
	if p.deg == 0 {
		return 0, 0, true
	}
	deg := int64(p.deg)
	w := len(out) / p.deg
	seg, local := p.sched.Locate(round)
	switch seg {
	case segPhase1:
		if local%2 == 1 {
			elem := p.currentElem()
			n, d, fast := elem.Raw()
			if !fast {
				return 0, 0, false
			}
			hdr := wireHdr(round, wireOffer)
			for q := 0; q < p.deg; q++ {
				out[q*w] = hdr
				out[q*w+1] = uint64(n)
				out[q*w+2] = uint64(d)
			}
			return deg, deg * int64(elem.WireBytes()), true
		}
		hdr := wireHdr(round, wireStatus)
		var bit uint64
		if p.rPos {
			bit = 1
		}
		for q := 0; q < p.deg; q++ {
			out[q*w] = hdr
			out[q*w+1] = bit
		}
		return deg, deg, true // statusMsg.WireSize() == 1
	case segShift:
		if !p.shrunk {
			p.shrinkCols()
		}
		hdr := wireHdr(round, wireCols)
		lane0 := out[:w]
		lane0[0] = hdr
		for i := 1; i < w; i++ {
			lane0[i] = 0
		}
		for i, c := range p.smallCols {
			lane0[1+i/8] |= uint64(uint8(c)) << (8 * uint(i%8))
		}
		for q := 1; q < p.deg; q++ {
			copy(out[q*w:(q+1)*w], lane0)
		}
		return deg, deg * int64(len(p.smallCols)), true // smallColsMsg.WireSize() == Δ
	case segStars:
		batch := (local - 1) / 2
		forest := batch / 3
		col := int8(batch % 3)
		if local%2 == 1 {
			// Round A: at most one port (the batch's parent) requests;
			// all other lanes are idle.
			for q := 0; q < p.deg; q++ {
				out[q*w] = 0
			}
			if p.parentOf[forest] >= 0 && p.smallCols[forest] == col && p.rPos {
				n, d, fast := p.r.Raw()
				if !fast {
					return 0, 0, false
				}
				q := p.parentOf[forest]
				out[q*w] = wireHdr(round, wireStarReq)
				out[q*w+1] = uint64(n)
				out[q*w+2] = uint64(d)
				return 1, int64(p.r.WireBytes()), true
			}
			return 0, 0, true
		}
		// Round B: roots reply to the ports that requested.
		if !p.pendingActive {
			for q := 0; q < p.deg; q++ {
				out[q*w] = 0
			}
			return 0, 0, true
		}
		hdr := wireHdr(round, wireStarReply)
		for q := 0; q < p.deg; q++ {
			if !p.pendingMask[q] {
				out[q*w] = 0
				continue
			}
			inc := p.pendingReply[q]
			n, d, fast := inc.Raw()
			if !fast {
				return 0, 0, false
			}
			out[q*w] = hdr
			out[q*w+1] = uint64(n)
			out[q*w+2] = uint64(d)
			msgs++
			bytes += int64(inc.WireBytes())
		}
		return msgs, bytes, true
	}
	panic("edgepack: SendWire called for a boxed round")
}

// RecvWire implements sim.WirePortProgram; it decodes lanes and drives
// the same apply* cores as the boxed Recv.  Only the star rounds carry
// idle lanes, so only they check the header stamp; every other segment
// writes all lanes every round.
func (p *Program) RecvWire(round int, in []uint64) {
	if p.deg == 0 {
		return
	}
	w := len(in) / p.deg
	seg, local := p.sched.Locate(round)
	switch seg {
	case segPhase1:
		if local%2 == 1 {
			p.applyOffers(p.currentElem(), func(q int) rational.Rat {
				return rational.FromRaw(int64(in[q*w+1]), int64(in[q*w+2]))
			})
		} else {
			for q := 0; q < p.deg; q++ {
				p.nPos[q] = in[q*w+1] != 0
			}
		}
	case segShift:
		colAt := func(q, i int) int8 {
			return int8(uint8(in[q*w+1+i/8] >> (8 * uint(i%8))))
		}
		iter := (local + 1) / 2
		if local%2 == 1 {
			p.applyShift(7-iter, colAt)
		} else {
			p.applyEliminate(int8(6-iter), colAt)
		}
	case segStars:
		batch := (local - 1) / 2
		forest := batch / 3
		col := int8(batch % 3)
		if local%2 == 1 {
			hdr := wireHdr(round, wireStarReq)
			p.applyStarRequests(func(q int) (rational.Rat, bool) {
				if in[q*w] != hdr {
					return rational.Zero, false
				}
				return rational.FromRaw(int64(in[q*w+1]), int64(in[q*w+2])), true
			})
		} else {
			hdr := wireHdr(round, wireStarReply)
			p.applyStarReplies(forest, col, func(q int) (rational.Rat, bool) {
				if in[q*w] != hdr {
					return rational.Zero, false
				}
				return rational.FromRaw(int64(in[q*w+1]), int64(in[q*w+2])), true
			})
		}
	default:
		panic("edgepack: RecvWire called for a boxed round")
	}
}

var _ sim.WirePortProgram = (*Program)(nil)
