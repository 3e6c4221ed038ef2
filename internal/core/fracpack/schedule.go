// Package fracpack implements Section 4 of Åstrand & Suomela (SPAA 2010):
// a deterministic distributed algorithm that computes a maximal fractional
// packing — and hence an f-approximate minimum-weight set cover — in
// O(f²k² + fk·log* W) synchronous rounds in the anonymous broadcast model.
//
// The set-cover instance is the bipartite graph H = (S ∪ U, A); both
// subset nodes and element nodes are computational entities.  The
// algorithm runs D+1 = (k-1)f+1 iterations.  Each iteration performs one
// saturation phase per colour class (paper §4.3), then a colouring phase
// (§4.4) that combines the weak Cole–Vishkin reduction of §4.5 with a
// trivial class-by-class colour reduction, guaranteeing that every
// element that survives an iteration loses at least one outgoing edge of
// the derived multigraph K — after D+1 iterations every element is
// saturated.
package fracpack

import (
	"math/bits"
	"sync"

	"anoncover/internal/colour"
	"anoncover/internal/sim"
)

// layout is the per-iteration round plan, identical at every node because
// it is derived from the global parameters only.
//
// The plan is a function of the global bounds f, k and W alone, so the
// step each round performs is decoded once, not per node per round:
// steps holds one iteration's rounds, steps[rr] being round rr (0-based)
// of every iteration.  Its content depends only on the layout's shape —
// the colour count and the weak-reduction length — so tables are
// memoised by shape and shared read-only by every program, run and
// goroutine; a weight-snapshot rerun, which moves W but rarely the
// shape, gets the table the memo already holds.  Degenerate parameters
// (K <= 0 or F <= 0) schedule no rounds: iters is 0 and no table is
// built.
type layout struct {
	D        int // (k-1)·f: max outdegree of K
	colours  int // D+1 colour classes
	satLen   int // 5 rounds per saturation phase x colours
	weakReps int // CV iterations + 1 final exchange for the 6->4 step
	weakLen  int // 2 rounds per weak iteration
	redLen   int // 2 rounds per c3 class, 4·(D+1) classes
	perIter  int
	iters    int    // D+1; 0 when no rounds are scheduled
	steps    []step // one iteration's steps, shared read-only; nil when iters is 0
	// Sleep hints, shared with steps: from round rr of an iteration,
	// toBase[rr] rounds ahead is the next base step (saturation (i) or
	// (ii), or a status round) and toWork[rr] the next base, weak or
	// reduce step.  An iteration opens with a base step, so neither
	// distance runs past the next iteration's first round.
	toBase []int32
	toWork []int32
}

// Step identifiers within an iteration.
type stepKind uint8

const (
	stepSatYBroadcast stepKind = iota // (i)   elements broadcast y(u)
	stepSatResidual                   // (ii)  subsets broadcast r(s)
	stepSatMembership                 // (iii) elements broadcast u ∈ U_yi
	stepSatOffer                      // (iv)  subsets broadcast x_i(s)
	stepSatPick                       // (v)   elements broadcast p(u); (vi) local
	stepStatusY                       // colouring-phase entry: fresh y
	stepStatusR                       // colouring-phase entry: fresh r
	stepWeakUp                        // §4.5 (i): elements broadcast triplets
	stepWeakDown                      // §4.5 (ii)+(iii): subsets relay, elements step
	stepReduceUp                      // trivial reduction: elements broadcast class state
	stepReduceDown                    // trivial reduction: subsets relay, class τ recolours
)

// step is what one round of an iteration performs: the protocol step
// and the one index that step reads.  8 bytes.
type step struct {
	kind stepKind
	weak uint8 // 1-based weak iteration (weak steps); at most CVRounds+1, a handful
	idx  int32 // saturation colour i (sat steps) or c3 class τ (reduce steps)
}

// colour is the saturation phase colour i of a sat step.
func (s step) colour() int { return int(s.idx) }

// class is the c3 class value τ of a reduce step.
func (s step) class() int { return int(s.idx) }

// layoutShape returns the layout's round counts without the step table.
func layoutShape(p sim.Params) layout {
	d := (p.K - 1) * p.F
	l := layout{D: d, colours: d + 1}
	l.satLen = 5 * l.colours
	l.weakReps = colour.CVRounds(c1BitsBound(p)) + 1
	l.weakLen = 2 * l.weakReps
	l.redLen = 2 * 4 * l.colours
	l.perIter = l.satLen + 2 + l.weakLen + l.redLen
	if p.K > 0 && p.F > 0 {
		l.iters = l.colours
	}
	return l
}

// base reports whether every node of some kind must run the step:
// elements broadcast y(u) in saturation (i) and the status-y round,
// subsets broadcast r(s) in (ii) and the status-r round.
func (k stepKind) base() bool {
	switch k {
	case stepSatYBroadcast, stepSatResidual, stepStatusY, stepStatusR:
		return true
	}
	return false
}

// work reports whether an unsaturated element must run the step: the
// base steps and every step of the colouring phase.
func (k stepKind) work() bool { return k.base() || k >= stepWeakUp }

// newLayout returns the layout for p with its shared step table.
func newLayout(p sim.Params) layout {
	l := layoutShape(p)
	if l.iters > 0 {
		t := stepTable(l)
		l.steps, l.toBase, l.toWork = t.steps, t.toBase, t.toWork
	}
	return l
}

// maxStepTables caps the memo.  Distinct shapes come from distinct
// (f, k) and the few weak-reduction lengths W can give, so a server
// sees a handful; a client posting instances of ever new (f, k) cannot
// grow the memo past the cap, which starts it afresh.
const maxStepTables = 64

// stepTables memoises step tables by layout shape.  It is package-wide
// so that every program, run and solver of one shape shares one table.
var stepTables struct {
	sync.Mutex
	m map[tableKey]*tables
}

// tableKey is the shape a step table depends on.
type tableKey struct{ colours, weakReps int }

// tables is one shape's step table and its sleep hints (see layout).
type tables struct {
	steps          []step
	toBase, toWork []int32
}

// stepTable returns the shared tables for l's shape, decoding them on
// first use.
func stepTable(l layout) *tables {
	key := tableKey{l.colours, l.weakReps}
	stepTables.Lock()
	defer stepTables.Unlock()
	if t, ok := stepTables.m[key]; ok {
		return t
	}
	if stepTables.m == nil || len(stepTables.m) >= maxStepTables {
		stepTables.m = make(map[tableKey]*tables)
	}
	t := &tables{
		steps:  make([]step, l.perIter),
		toBase: make([]int32, l.perIter),
		toWork: make([]int32, l.perIter),
	}
	for rr := range t.steps {
		_, t.steps[rr] = l.locate(rr + 1)
	}
	nextBase, nextWork := l.perIter, l.perIter
	for rr := l.perIter - 1; rr >= 0; rr-- {
		t.toBase[rr] = int32(nextBase - rr)
		t.toWork[rr] = int32(nextWork - rr)
		if k := t.steps[rr].kind; k.base() {
			nextBase, nextWork = rr, rr
		} else if k.work() {
			nextWork = rr
		}
	}
	stepTables.m[key] = t
	return t
}

// c1BitsBound bounds the bit length of the χ-colouring c1 = EncodeRat(p):
// across the whole run there are at most (D+1)² saturation phases, each
// dividing a residual by at most k, so denominators divide (k!)^((D+1)²)
// and numerators are bounded by W times that (the paper's χ).
func c1BitsBound(p sim.Params) int {
	d := (p.K-1)*p.F + 1
	den := d * d * colour.FactorialBits(p.K)
	num := bits.Len64(uint64(p.W)) + den
	return colour.BitsBoundRat(num, den)
}

// Rounds returns the total number of communication rounds for the given
// parameters: O(f²k² + fk·log* W).
func Rounds(p sim.Params) int {
	l := layoutShape(p)
	return l.iters * l.perIter
}

// locate decodes a global 1-based round number into its 1-based
// iteration and its step.  It is the reference decoder: it builds the
// step tables, and the tests hold every cursor lookup to it.
func (l layout) locate(round int) (iter int, s step) {
	idx := round - 1
	iter = idx/l.perIter + 1
	rr := idx % l.perIter // 0-based within iteration
	if rr < l.satLen {
		s.idx = int32(rr/5 + 1)
		s.kind = stepKind(rr % 5) // stepSatYBroadcast..stepSatPick
		return iter, s
	}
	rr -= l.satLen
	if rr < 2 {
		if rr == 0 {
			s.kind = stepStatusY
		} else {
			s.kind = stepStatusR
		}
		return iter, s
	}
	rr -= 2
	if rr < l.weakLen {
		s.weak = uint8(rr/2 + 1)
		if rr%2 == 0 {
			s.kind = stepWeakUp
		} else {
			s.kind = stepWeakDown
		}
		return iter, s
	}
	rr -= l.weakLen
	classIdx := rr / 2
	// Classes processed from the highest c3 value, 4(D+1)+3, downwards
	// to 4; c3 = 4c + c2 with c in 1..D+1 and c2 in 0..3.
	s.idx = int32(4*l.colours + 3 - classIdx)
	if rr%2 == 0 {
		s.kind = stepReduceUp
	} else {
		s.kind = stepReduceDown
	}
	return iter, s
}

// cursor is a program's place in the schedule: the iteration it is in
// and that iteration's first round.
type cursor struct {
	iter  int // 1-based
	start int // first round of iter
}

// startCursor is the cursor of a fresh run: iteration 1, from round 1.
var startCursor = cursor{iter: 1, start: 1}

// at returns the step of a global 1-based round and whether the round
// moved the cursor to another iteration, the point where programs reset
// their per-iteration state.  Inside the cursor's iteration a lookup is
// a subtraction, one range compare and an indexed load; the division
// runs only when the round lies outside it.  So any call order is
// served exactly as locate would: forward, in the iteration-sized
// chunks offsetProg feeds under EarlyExit, or as the Section 5 history
// simulation (bcastvc) drives a reused SubsetProgram — a backward jump
// just moves the cursor back.
func (l *layout) at(c *cursor, round int) (s step, moved bool) {
	rr := round - c.start
	if uint(rr) >= uint(l.perIter) {
		it := (round-1)/l.perIter + 1
		moved = it != c.iter
		c.iter, c.start = it, (it-1)*l.perIter+1
		rr = round - c.start
	}
	return l.steps[rr], moved
}

// lastWeak reports whether weak iteration w is the final exchange, whose
// ℓ values feed the 6->4 palette step instead of a CV step.
func (l layout) lastWeak(w int) bool { return w == l.weakReps }
