package fracpack

import (
	"math/big"

	"anoncover/internal/rational"
)

// Message types.  nil messages mean "not participating this round".
// All payloads are immutable once sent.
//
// The non-empty messages travel as pointers into per-program slab
// arenas (msgArena): boxing a multi-word struct into an interface
// allocates, and these programs send one message per node per round for
// thousands of rounds, so the per-message heap allocation was the
// dominant steady-state cost of a run.  The arena batches it into one
// allocation per slab of messages.  Slabs are append-only for the
// lifetime of a run — a handed-out pointer is never rewritten — which
// keeps the messages immutable even when a consumer (the Section 5
// history simulation) retains them for the entire run.  mMember is the
// exception: it is zero-size, and Go boxes zero-size values for free.

// mY carries an element's current y(u) (steps (i) and the status round).
type mY struct{ Y rational.Rat }

func (m mY) WireSize() int { return m.Y.WireBytes() }

// mR carries a subset's residual r(s) (step (ii) and the status round).
type mR struct{ R rational.Rat }

func (m mR) WireSize() int { return m.R.WireBytes() }

// mMember signals u ∈ U_yi (step (iii)); absence (nil) means not a member.
type mMember struct{}

func (m mMember) WireSize() int { return 1 }

// mX carries x_i(s) = r(s)/|U_yi(s)| (step (iv)).
type mX struct{ X rational.Rat }

func (m mX) WireSize() int { return m.X.WireBytes() }

// mP carries p(u) = min x_i(s) (step (v)).
type mP struct{ P rational.Rat }

func (m mP) WireSize() int { return m.P.WireBytes() }

// weakTriplet is §4.5's (c'(v), c(v), p(v)) as broadcast by elements, and
// (c'(v), i, x_i(s)) as relayed by subsets (P then holds x_i(s)).
type weakTriplet struct {
	CPrime *big.Int
	C      int
	P      rational.Rat
}

func (m weakTriplet) WireSize() int { return m.CPrime.BitLen()/8 + 2 + m.P.WireBytes() }

// mWeakSet is the subset-side relay of matching triplets.
type mWeakSet struct{ Items []weakTriplet }

func (m mWeakSet) WireSize() int {
	n := 1
	for _, it := range m.Items {
		n += it.WireSize()
	}
	return n
}

// classState is an element's (c3, new colour) pair during the trivial
// colour reduction; CNew == 0 means not yet recoloured.
type classState struct {
	C3   int
	CNew int
}

func (m classState) WireSize() int { return 4 }

// mClassSet is the subset-side relay of its elements' class states.
type mClassSet struct{ Items []classState }

func (m mClassSet) WireSize() int { return 1 + 4*len(m.Items) }

// msgArena batches a program's outgoing-message allocations: slabPut
// appends the value to a typed slab (replacing a full slab with a
// bigger one, never growing in place, so previously returned pointers
// stay valid and immutable) and returns its address.  One arena serves
// one node program; nodes never share arenas, so no synchronization is
// needed on any engine.
type msgArena struct {
	ys  []mY
	rs  []mR
	xs  []mX
	ps  []mP
	ts  []weakTriplet
	cs  []classState
	ws  []mWeakSet
	cls []mClassSet
}

// slabPut appends v to the slab, moving to a fresh (larger) slab when
// full.  The old slab is abandoned, not freed: outstanding pointers
// into it remain valid.
func slabPut[T any](slab *[]T, v T) *T {
	s := *slab
	if len(s) == cap(s) {
		n := 2 * cap(s)
		if n < 16 {
			n = 16
		}
		if n > 512 {
			n = 512
		}
		s = make([]T, 0, n)
	}
	s = append(s, v)
	*slab = s
	return &s[len(s)-1]
}

// maxCarveSlab caps a carve slab's length.  A pooled program keeps its
// current slab between runs, and a subset's relay sets are a handful of
// entries per round, so a slab as long as slabPut's would hold mostly
// unused capacity live in every pooled subset.
const maxCarveSlab = 32

// slabCarve returns n consecutive slots of the slab, moving to a fresh
// slab when they do not fit.  The slice's capacity ends at its length,
// so an append by its holder reallocates instead of writing into slots
// carved later; like slabPut's, the slots are never handed out again
// within a run.
func slabCarve[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		c := min(max(2*cap(s), 16), maxCarveSlab)
		s = make([]T, 0, max(c, n))
	}
	lo := len(s)
	s = s[:lo+n]
	*slab = s
	return s[lo : lo+n : lo+n]
}

// reset re-arms the arena for a new run over the same program.  The
// current slabs are cleared, truncated and rewritten from the start;
// callers must only reset once every pointer handed out in the previous
// run is unreachable (ProgramPool guarantees it: the pooled program is
// reused only after its run's Result has been assembled).  Clearing the
// used prefix keeps every entry past a slab's length zero, so a pooled
// program never holds an earlier run's rationals or relay slabs live.
func (a *msgArena) reset() {
	clear(a.ys)
	clear(a.rs)
	clear(a.xs)
	clear(a.ps)
	clear(a.ts)
	clear(a.cs)
	clear(a.ws)
	clear(a.cls)
	a.ys, a.rs, a.xs, a.ps = a.ys[:0], a.rs[:0], a.xs[:0], a.ps[:0]
	a.ts, a.cs, a.ws, a.cls = a.ts[:0], a.cs[:0], a.ws[:0], a.cls[:0]
}

func (a *msgArena) mY(y rational.Rat) *mY              { return slabPut(&a.ys, mY{Y: y}) }
func (a *msgArena) mR(r rational.Rat) *mR              { return slabPut(&a.rs, mR{R: r}) }
func (a *msgArena) mX(x rational.Rat) *mX              { return slabPut(&a.xs, mX{X: x}) }
func (a *msgArena) mP(p rational.Rat) *mP              { return slabPut(&a.ps, mP{P: p}) }
func (a *msgArena) triplet(t weakTriplet) *weakTriplet { return slabPut(&a.ts, t) }
func (a *msgArena) class(c classState) *classState     { return slabPut(&a.cs, c) }
func (a *msgArena) weakSet(items []weakTriplet) *mWeakSet {
	return slabPut(&a.ws, mWeakSet{Items: items})
}
func (a *msgArena) classSet(items []classState) *mClassSet {
	return slabPut(&a.cls, mClassSet{Items: items})
}

// relay and classes carve a subset's relay sets, which leave the node
// inside sent messages, from the append-only slabs, never from a reused
// buffer.
func (a *msgArena) relay(n int) []weakTriplet  { return slabCarve(&a.ts, n) }
func (a *msgArena) classes(n int) []classState { return slabCarve(&a.cs, n) }
