package fracpack

import (
	"fmt"

	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// SubsetProgram is the broadcast-model node program run by every subset
// node s ∈ S.  It implements sim.BroadcastProgram and sim.Sleeper.  Its
// sleep hints describe its own Send and Recv only: a type that embeds
// it and changes either would inherit a promise it does not keep, so
// wrappers hold it as a named field (as bcastvc does).
type SubsetProgram struct {
	env sim.Env
	lay layout
	ar  msgArena

	w, r rational.Rat

	// per-iteration state
	cur  cursor
	x    []rational.Rat // x_i(s), indexed by colour 1..D+1
	xSet []bool
	q    []rational.Rat // q_i(s)
	qSet []bool

	// relay scratch
	weakM   []weakTriplet // M(s): triplets received in the last weak up-round
	weakBuf []weakTriplet // weakM's storage, reused: M(s) never leaves the node
	classM  []classState  // class states received in the last reduce up-round
}

// NewSubset returns an initialized subset-node program.
func NewSubset(env sim.Env) *SubsetProgram {
	p := &SubsetProgram{}
	p.Reset(env)
	return p
}

// Reset re-initializes the program for a fresh run in the given
// environment, reusing the message arena's slabs and the per-iteration
// buffers.  It is the pooling protocol ProgramPool drives; the previous
// run's messages must be unreachable by the time Reset is called.
func (p *SubsetProgram) Reset(env sim.Env) {
	if env.Params != p.env.Params || p.lay.perIter == 0 {
		p.lay = newLayout(env.Params)
	}
	p.env = env
	p.ar.reset()
	p.w = rational.FromInt(env.Weight)
	p.r = p.w
	p.cur = startCursor
	p.resetIter()
}

// Init implements sim.BroadcastProgram; NewSubset performs the work.
func (p *SubsetProgram) Init(env sim.Env) {}

func (p *SubsetProgram) resetIter() {
	n := p.lay.colours + 1
	if cap(p.x) >= n {
		p.x, p.q = p.x[:n], p.q[:n]
		p.xSet, p.qSet = p.xSet[:n], p.qSet[:n]
		for i := 0; i < n; i++ {
			p.x[i], p.q[i] = rational.Zero, rational.Zero
			p.xSet[i], p.qSet[i] = false, false
		}
	} else {
		p.x = make([]rational.Rat, n)
		p.xSet = make([]bool, n)
		p.q = make([]rational.Rat, n)
		p.qSet = make([]bool, n)
	}
	p.weakM = nil
	p.classM = nil
}

func (p *SubsetProgram) at(round int) step {
	s, moved := p.lay.at(&p.cur, round)
	if moved {
		p.resetIter()
	}
	return s
}

// Send implements sim.BroadcastProgram.
func (p *SubsetProgram) Send(round int) sim.Message {
	switch loc := p.at(round); loc.kind {
	case stepSatResidual, stepStatusR:
		return p.ar.mR(p.r)
	case stepSatOffer:
		if p.xSet[loc.colour()] {
			return p.ar.mX(p.x[loc.colour()])
		}
	case stepWeakDown:
		// §4.5 step (ii): relay (c'(v), i, x_i(s)) for every stored
		// triplet whose p(v) equals q_i(s).
		n := 0
		for _, t := range p.weakM {
			if p.relays(t) {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		items := p.ar.relay(n)[:0]
		for _, t := range p.weakM {
			if p.relays(t) {
				items = append(items, weakTriplet{CPrime: t.CPrime, C: t.C, P: p.x[t.C]})
			}
		}
		return p.ar.weakSet(items)
	case stepReduceDown:
		if p.classM != nil {
			return p.ar.classSet(p.classM)
		}
	}
	return nil
}

// Recv implements sim.BroadcastProgram.
func (p *SubsetProgram) Recv(round int, msgs []sim.Message) {
	switch loc := p.at(round); loc.kind {
	case stepSatYBroadcast, stepStatusY:
		// Every element broadcasts y(u); recompute y[s] and r(s).
		load := rational.Zero
		seen := 0
		for _, raw := range msgs {
			if m, ok := raw.(*mY); ok {
				load = load.Add(m.Y)
				seen++
			}
		}
		if seen != p.env.Degree {
			panic(fmt.Sprintf("fracpack: subset heard %d of %d elements", seen, p.env.Degree))
		}
		p.r = p.w.Sub(load)
		if p.r.Sign() < 0 {
			panic(fmt.Sprintf("fracpack: subset overpacked: r = %v", p.r))
		}
	case stepSatMembership:
		cnt := 0
		for _, raw := range msgs {
			if _, ok := raw.(mMember); ok {
				cnt++
			}
		}
		if cnt > 0 {
			// s ∈ S': x_i(s) = r(s) / |U_yi(s)|.
			p.x[loc.colour()] = p.r.DivInt(int64(cnt))
			p.xSet[loc.colour()] = true
		}
	case stepSatPick:
		first := true
		for _, raw := range msgs {
			m, ok := raw.(*mP)
			if !ok {
				continue
			}
			if first || m.P.Less(p.q[loc.colour()]) {
				p.q[loc.colour()] = m.P
			}
			first = false
		}
		if !first {
			p.qSet[loc.colour()] = true
		}
		if p.xSet[loc.colour()] == first {
			panic("fracpack: x_i(s) and q_i(s) must be set together")
		}
	case stepWeakUp:
		// M(s) only feeds the relay this node builds next round, which
		// copies what it sends, so its storage is reused.
		p.weakM = p.weakBuf[:0]
		for _, raw := range msgs {
			if t, ok := raw.(*weakTriplet); ok {
				p.weakM = append(p.weakM, *t)
			}
		}
		if len(p.weakM) == 0 {
			p.weakM = nil
		} else {
			p.weakBuf = p.weakM
		}
	case stepReduceUp:
		// The class states are relayed as they are, inside a message the
		// Section 5 history simulation may keep for the whole run, so
		// they are carved from the arena and never overwritten.
		p.classM = nil
		if n := countOf[*classState](msgs); n > 0 {
			p.classM = p.ar.classes(n)[:0]
			for _, raw := range msgs {
				if c, ok := raw.(*classState); ok {
					p.classM = append(p.classM, *c)
				}
			}
		}
	}
}

// relays reports whether §4.5 step (ii) relays a stored triplet: its
// colour is a saturation colour whose pick this subset heard, and p(v)
// equals q_i(s).
func (p *SubsetProgram) relays(t weakTriplet) bool {
	i := t.C
	return i >= 1 && i <= p.lay.colours && p.qSet[i] && t.P.Equal(p.q[i])
}

// countOf counts the messages of type T in a round's inbox.
func countOf[T any](msgs []sim.Message) int {
	n := 0
	for _, raw := range msgs {
		if _, ok := raw.(T); ok {
			n++
		}
	}
	return n
}

// SleepUntil implements sim.Sleeper.  A subset must broadcast r(s) in
// saturation step (ii) and the status-r round, so it sleeps to the next
// base step unless its state says the next round needs it: an offer or
// pick round of a colour it holds x_i(s) for, or a weak or reduce round
// while it holds relay state.  Every other round it would only hear
// offers, picks or element states, and those wake it.
func (p *SubsetProgram) SleepUntil(r int) int {
	p.at(r)
	rr := r - p.cur.start
	if rr+1 < p.lay.perIter {
		switch next := p.lay.steps[rr+1]; next.kind {
		case stepSatOffer, stepSatPick:
			if p.xSet[next.colour()] {
				return r + 1
			}
		case stepWeakUp, stepWeakDown:
			if p.weakM != nil {
				return r + 1
			}
		case stepReduceUp, stepReduceDown:
			if p.classM != nil {
				return r + 1
			}
		}
	}
	return r + int(p.lay.toBase[rr])
}

// SubsetResult is a subset node's final output.
type SubsetResult struct {
	Residual rational.Rat
	InCover  bool // saturated: y[s] == w_s
}

// Output implements sim.BroadcastProgram.
func (p *SubsetProgram) Output() any {
	return SubsetResult{Residual: p.r, InCover: p.r.IsZero()}
}
