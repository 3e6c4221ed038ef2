package fracpack

import (
	"fmt"
	"math/big"

	"anoncover/internal/colour"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// ElemProgram is the broadcast-model node program run by every element
// u ∈ U.  It implements sim.BroadcastProgram and sim.Sleeper; like
// SubsetProgram, it must be wrapped as a named field, never embedded.
type ElemProgram struct {
	env sim.Env
	lay layout
	ar  msgArena

	y         rational.Rat
	c         int // improper colouring of K, in 1..D+1
	saturated bool

	// per-iteration state
	cur    cursor
	inUyi  bool         // member of U_yi during the current phase
	p      rational.Rat // p(u) from this iteration's phase for colour c
	pValid bool
	cPrime *big.Int // weak-reduction working colour c'
	c2     int      // weak colour in {0..3}
	c3     int      // composite colour 4c + c2
	cNew   int      // trivial-reduction target colour; 0 = unset
}

// NewElement returns an initialized element-node program.
func NewElement(env sim.Env) *ElemProgram {
	p := &ElemProgram{}
	p.Reset(env)
	return p
}

// Reset re-initializes the program for a fresh run in the given
// environment, reusing the message arena's slabs.  It is the pooling
// protocol ProgramPool drives; the previous run's messages must be
// unreachable by the time Reset is called.
func (p *ElemProgram) Reset(env sim.Env) {
	if env.Params != p.env.Params || p.lay.perIter == 0 {
		p.lay = newLayout(env.Params)
	}
	p.env = env
	p.ar.reset()
	p.y = rational.Zero
	p.c = 1
	p.saturated = false
	p.cur = startCursor
	p.inUyi = false
	p.p = rational.Zero
	p.pValid = false
	p.cPrime = nil
	p.c2, p.c3, p.cNew = 0, 0, 0
}

// Init implements sim.BroadcastProgram; NewElement performs the work.
func (p *ElemProgram) Init(env sim.Env) {}

func (p *ElemProgram) resetIter() {
	if p.cNew != 0 {
		p.c = p.cNew
	}
	p.inUyi = false
	p.pValid = false
	p.cPrime = nil
	p.c2, p.c3, p.cNew = 0, 0, 0
}

func (p *ElemProgram) at(round int) step {
	s, moved := p.lay.at(&p.cur, round)
	if moved {
		p.resetIter()
	}
	return s
}

// Send implements sim.BroadcastProgram.
func (p *ElemProgram) Send(round int) sim.Message {
	switch loc := p.at(round); loc.kind {
	case stepSatYBroadcast, stepStatusY:
		return p.ar.mY(p.y)
	case stepSatMembership:
		if p.inUyi {
			return mMember{}
		}
	case stepSatPick:
		if p.inUyi {
			return p.ar.mP(p.p)
		}
	case stepWeakUp:
		if p.saturated {
			return nil
		}
		if !p.pValid {
			panic("fracpack: unsaturated element entered the colouring phase without p(u)")
		}
		if loc.weak == 1 {
			// c1: the χ-colouring injectively encoding p(u) (§4.4).
			p.cPrime = colour.EncodeRat(p.p)
		}
		return p.ar.triplet(weakTriplet{CPrime: p.cPrime, C: p.c, P: p.p})
	case stepReduceUp:
		if !p.saturated {
			return p.ar.class(classState{C3: p.c3, CNew: p.cNew})
		}
	}
	return nil
}

// Recv implements sim.BroadcastProgram.
func (p *ElemProgram) Recv(round int, msgs []sim.Message) {
	switch loc := p.at(round); loc.kind {
	case stepSatResidual, stepStatusR:
		p.updateSaturation(msgs)
		if loc.kind == stepSatResidual {
			p.inUyi = !p.saturated && p.c == loc.colour()
		}
	case stepSatOffer:
		if !p.inUyi {
			return
		}
		// p(u) = min { x_i(s) : s ∈ N(u) }; every neighbour is in S'
		// because u itself witnesses U_yi(s) != ∅.
		seen := 0
		for _, raw := range msgs {
			m, ok := raw.(*mX)
			if !ok {
				continue
			}
			if seen == 0 || m.X.Less(p.p) {
				p.p = m.X
			}
			seen++
		}
		if seen != p.env.Degree {
			panic(fmt.Sprintf("fracpack: element in U_yi heard %d of %d offers", seen, p.env.Degree))
		}
		if p.p.Sign() <= 0 {
			panic("fracpack: non-positive offer")
		}
		p.pValid = true
	case stepSatPick:
		if p.inUyi {
			// Step (vi): y(u) <- y(u) + p(u).
			p.y = p.y.Add(p.p)
		}
	case stepWeakDown:
		if p.saturated {
			return
		}
		ell := p.weakEll(msgs)
		if !p.lay.lastWeak(int(loc.weak)) {
			if ell != nil {
				p.cPrime = colour.CVStep(p.cPrime, ell)
			} else {
				p.cPrime = colour.CVRootStep(p.cPrime)
			}
			return
		}
		// Final exchange: apply the 6->4 palette step and form
		// c3 = 4c + c2.
		own := p.smallCPrime(p.cPrime)
		ellSmall := -1
		if ell != nil {
			ellSmall = p.smallCPrime(ell)
		}
		p.c2 = colour.WeakSixToFour(own, ellSmall)
		p.c3 = 4*p.c + p.c2
		p.cNew = 0
	case stepReduceDown:
		if p.saturated {
			return
		}
		if p.c3 == loc.class() && p.cNew == 0 {
			p.pickReduced(msgs)
		}
		if loc.class() == 4 && p.cNew == 0 {
			panic("fracpack: element left the trivial reduction uncoloured")
		}
	}
}

// SleepUntil implements sim.Sleeper.  A saturated element only ever
// broadcasts y(u) and hears residuals, so it sleeps to the next base
// step; an element in U_yi runs its phase's membership, offer and pick
// rounds; any other unsaturated element sleeps through the saturation
// phases of colours it is not in U_yi for, but runs every colouring
// step.
func (p *ElemProgram) SleepUntil(r int) int {
	p.at(r)
	rr := r - p.cur.start
	switch {
	case p.saturated:
		return r + int(p.lay.toBase[rr])
	case p.inUyi:
		return r + 1
	}
	return r + int(p.lay.toWork[rr])
}

// updateSaturation marks the element saturated when any adjacent subset
// has zero residual.  Saturation is monotone: residuals never grow.
func (p *ElemProgram) updateSaturation(msgs []sim.Message) {
	for _, raw := range msgs {
		if m, ok := raw.(*mR); ok && m.R.IsZero() {
			p.saturated = true
			return
		}
	}
}

// weakEll computes ℓ(u) = min L(u) from the subsets' relayed triplets
// (§4.5 step (iii)): L(u) collects c'(v) over B-successors v, i.e.
// relayed triplets matching c(u) = i and p(u) = x_i(s), excluding u's own
// colour.
func (p *ElemProgram) weakEll(msgs []sim.Message) *big.Int {
	var ell *big.Int
	for _, raw := range msgs {
		set, ok := raw.(*mWeakSet)
		if !ok {
			continue
		}
		for _, item := range set.Items {
			if item.C != p.c || !p.p.Equal(item.P) {
				continue
			}
			if item.CPrime.Cmp(p.cPrime) == 0 {
				continue
			}
			if ell == nil || item.CPrime.Cmp(ell) < 0 {
				ell = item.CPrime
			}
		}
	}
	return ell
}

// smallCPrime converts a post-CV colour to the small palette {0..5}.
func (p *ElemProgram) smallCPrime(c *big.Int) int {
	if c.BitLen() > 3 || c.Int64() > 5 {
		panic(fmt.Sprintf("fracpack: colour %v escaped the CV plateau", c))
	}
	return int(c.Int64())
}

// pickReduced runs the element's turn of the trivial colour reduction:
// choose the smallest colour in {1..D+1} not already chosen by a
// K-neighbour of a different c3 class.
func (p *ElemProgram) pickReduced(msgs []sim.Message) {
	used := make(map[int]bool)
	for _, raw := range msgs {
		set, ok := raw.(*mClassSet)
		if !ok {
			continue
		}
		for _, item := range set.Items {
			if item.C3 != p.c3 && item.CNew != 0 {
				used[item.CNew] = true
			}
		}
	}
	for cand := 1; cand <= p.lay.colours; cand++ {
		if !used[cand] {
			p.cNew = cand
			return
		}
	}
	panic("fracpack: no free colour in the trivial reduction (K-degree bound violated)")
}

// ElemResult is an element node's final output.
type ElemResult struct {
	Y         rational.Rat
	Saturated bool
}

// Output implements sim.BroadcastProgram.
func (p *ElemProgram) Output() any {
	return ElemResult{Y: p.y, Saturated: p.saturated}
}
