// Package edgepack implements the paper's primary contribution (Åstrand &
// Suomela, SPAA 2010, Section 3): a deterministic distributed algorithm
// that computes a maximal edge packing — and hence a 2-approximate
// minimum-weight vertex cover — in O(Δ + log* W) synchronous rounds in the
// anonymous port-numbering model.
//
// The algorithm runs in two phases.  Phase I repeats Δ times: every
// active node offers x(v) = r(v)/deg_yc(v) units to each incident active
// edge and each active edge accepts the minimum of the two offers; the
// offered values double as colour-sequence elements, so an edge that a
// step fails to saturate becomes multicoloured (Lemma 1).  Phase II
// orients the remaining unsaturated (hence multicoloured) edges from
// lower to higher colour, splits them into Δ forests by outgoing port
// rank, 3-colours every forest with Cole–Vishkin colour reduction plus
// shift-down/eliminate steps, and finally saturates the edges of each
// (forest, colour) class — a disjoint union of stars — in parallel.
//
// Each Phase I iteration takes two rounds: an offer round that performs
// the paper's steps (i)–(iii), and a status round that gives both
// endpoints of every edge a consistent view of each other's saturation
// before the next offers are computed (the paper leaves this bookkeeping
// implicit).  The status round after the last iteration also feeds the
// Phase II orientation.
//
// A node's Phase II colour is its Phase I sequence read as one binary
// integer of fixed-width (numerator, denominator) fields, with widths
// from Lemma 2 (seqcolour.go).  The integer is never built: orientation
// compares sequences field by field, and since every node holds each
// neighbour's whole sequence, it takes the first Cole–Vishkin step
// locally.  The step leaves colours below twice the colour's bit length,
// so the remaining CVRounds(p) rounds exchange one uint64 per forest.
package edgepack

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"anoncover/internal/colour"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// Schedule segments.
const (
	segPhase1 = iota // 2Δ rounds: (offer, status) per iteration
	segCV            // CVRounds(p) rounds: Cole–Vishkin per forest
	segShift         // 6 rounds: 3 x (shift-down, eliminate) to 3 colours
	segStars         // 6Δ rounds: 2 per (forest, colour) batch
)

// ScheduleFor returns the global round schedule all nodes derive from the
// parameters (Δ, W); the total is O(Δ + log* W).
func ScheduleFor(p sim.Params) sim.Schedule {
	d := p.Delta
	if d == 0 {
		return sim.NewSchedule(0, 0, 0, 0)
	}
	return sim.NewSchedule(2*d, CVRounds(p), 6, 6*d)
}

// Rounds returns the number of communication rounds the algorithm uses
// for the given parameters.
func Rounds(p sim.Params) int { return ScheduleFor(p).Total() }

// Message types.  All values are immutable once sent.

type offerMsg struct {
	Elem rational.Rat // colour-sequence element: x(v), or 1 if v ∉ V_yc
}

func (m offerMsg) WireSize() int { return m.Elem.WireBytes() }

type statusMsg struct {
	RPos bool // r(v) > 0 after the iteration just completed
}

func (m statusMsg) WireSize() int { return 1 }

type cvMsg struct {
	Cols []uint64 // current per-forest colours
}

func (m cvMsg) WireSize() int {
	n := 1
	for _, c := range m.Cols {
		n += bits.Len64(c)/8 + 1
	}
	return n
}

type smallColsMsg struct {
	Cols []int8 // per-forest colours, small palette
}

func (m smallColsMsg) WireSize() int { return len(m.Cols) }

type starReq struct {
	R rational.Rat // leaf residual
}

func (m starReq) WireSize() int { return m.R.WireBytes() }

type starReply struct {
	Inc rational.Rat // increment for the requesting leaf's edge
}

func (m starReply) WireSize() int { return m.Inc.WireBytes() }

// Program is the per-node state machine.  It implements sim.PortProgram
// and, for the rounds whose messages fit fixed word lanes, the
// simulator's wire path (see wire.go).  All per-round state lives in
// buffers allocated once (by New or the first round that needs them)
// and recycled by Reset, so a pooled program serves a fresh run without
// re-paying the setup allocations.
type Program struct {
	env   sim.Env
	sched sim.Schedule
	deg   int

	// shared edge state (identical copies at both endpoints)
	y    []rational.Rat // per port
	mcol []bool         // edge already multicoloured
	nPos []bool         // neighbour's r > 0, from the last status round

	// own packing state
	w    rational.Rat
	r    rational.Rat
	rPos bool

	// colour sequences; both are sliced out of seqBuf so the Phase I
	// appends never allocate (each port and the node itself append at
	// most Δ elements).
	seqBuf []rational.Rat
	ownSeq []rational.Rat
	nbrSeq [][]rational.Rat // per port

	// Phase II state, built at the Phase I -> CV transition.  The
	// colour slices (forestCols, smallCols) are shared with sent boxed
	// messages, which consumers like the selfstab tables may retain for
	// arbitrarily long — so each colour step allocates its successor
	// slice fresh instead of recycling; only the never-shared preShift
	// scratch is reused.  These segments are O(log* W + 1) rounds, so
	// the allocations do not show up in the steady state.
	oriented   bool
	parentOf   []int // forest -> port of parent edge, -1 if root
	forestCols []uint64
	shrunk     bool
	smallCols  []int8 // colours once reduced to {0..5}
	preShift   []int8 // own colour before the last shift-down, per forest

	// star-phase scratch: pending replies per port for the current
	// batch; pendingActive gates them so the buffers persist across
	// batches (and runs) without reallocation.
	pendingActive bool
	pendingReply  []rational.Rat
	pendingMask   []bool
	reqPorts      []int

	// outBuf is the reusable Send buffer.  The engines consume the
	// returned slice synchronously within the send phase (scattering
	// the values into their inboxes) and never retain it, so reusing
	// it removes the dominant per-round allocation — one slice per
	// node per round.
	outBuf []sim.Message
}

// New returns an initialized node program for the given environment.
func New(env sim.Env) *Program {
	p := &Program{}
	p.Reset(env)
	return p
}

// Reset re-initializes the program for a fresh run in the given
// environment, reusing every buffer the previous run allocated when
// the shape (degree, Δ) still fits.  It is the pooling protocol that
// lets a compiled Solver serve run after run without the ~6 per-node
// setup allocations New pays; ProgramPool drives it.
func (p *Program) Reset(env sim.Env) {
	// The schedule depends only on the global parameters, not on this
	// node's degree or weight: a weight-snapshot rerun (same Params,
	// fresh weights) keeps the cached schedule instead of re-deriving
	// it at every node.
	if env.Params != p.env.Params || p.sched.Total() == 0 {
		p.sched = ScheduleFor(env.Params)
	}
	p.env = env
	p.deg = env.Degree
	p.w = rational.FromInt(env.Weight)
	p.r = p.w
	p.rPos = true
	if cap(p.y) >= p.deg {
		p.y = p.y[:p.deg]
		for i := range p.y {
			p.y[i] = rational.Zero
		}
	} else {
		p.y = make([]rational.Rat, p.deg)
	}
	p.mcol = resetBools(p.mcol, p.deg, false)
	p.nPos = resetBools(p.nPos, p.deg, true) // all nodes start unsaturated
	// One flat buffer backs ownSeq and the per-port nbrSeq: segment q
	// holds nbrSeq[q], the last segment ownSeq, each with capacity Δ.
	delta := env.Params.Delta
	need := (p.deg + 1) * delta
	if cap(p.seqBuf) < need || cap(p.nbrSeq) < p.deg {
		p.seqBuf = make([]rational.Rat, need)
		p.nbrSeq = make([][]rational.Rat, p.deg)
	} else {
		p.seqBuf = p.seqBuf[:cap(p.seqBuf)]
		clear(p.seqBuf) // unpin the previous run's promoted rationals
	}
	p.nbrSeq = p.nbrSeq[:p.deg]
	for q := 0; q < p.deg; q++ {
		p.nbrSeq[q] = p.seqBuf[q*delta : q*delta : (q+1)*delta]
	}
	p.ownSeq = p.seqBuf[p.deg*delta : p.deg*delta : need]
	p.oriented = false
	p.shrunk = false
	p.pendingActive = false
	if cap(p.pendingReply) >= p.deg {
		p.pendingReply = p.pendingReply[:p.deg]
		clear(p.pendingReply)
		p.pendingMask = p.pendingMask[:p.deg]
	} else {
		p.pendingReply = make([]rational.Rat, p.deg)
		p.pendingMask = make([]bool, p.deg)
	}
	p.reqPorts = p.reqPorts[:0]
	// outBuf is lazily sized by Send, but a pooled program may be
	// reused on a graph with the same node count and a different degree
	// sequence — reshape (and unpin the old run's boxed messages) or
	// drop it so Send cannot return a stale-length slice.
	if cap(p.outBuf) >= p.deg {
		p.outBuf = p.outBuf[:p.deg]
		clear(p.outBuf)
	} else {
		p.outBuf = nil
	}
}

// resetBools returns a length-n slice filled with v, reusing s's
// backing array when it is large enough.
func resetBools(s []bool, n int, v bool) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Init implements sim.PortProgram; New performs the work.
func (p *Program) Init(env sim.Env) {}

// edgeActive reports whether port q's edge is in E_yc at the start of the
// current iteration: both endpoints unsaturated and not multicoloured.
// Symmetry holds because nPos comes from the status round both endpoints
// share and mcol is derived from the identical element history.
func (p *Program) edgeActive(q int) bool {
	return p.rPos && p.nPos[q] && !p.mcol[q]
}

// currentElem returns this iteration's colour-sequence element: the offer
// x(v) = r(v)/deg_yc(v) when v ∈ V_yc, and 1 otherwise.
func (p *Program) currentElem() rational.Rat {
	degyc := 0
	for q := 0; q < p.deg; q++ {
		if p.edgeActive(q) {
			degyc++
		}
	}
	if degyc == 0 {
		return rational.One
	}
	return p.r.DivInt(int64(degyc))
}

// Send implements sim.PortProgram.
func (p *Program) Send(round int) []sim.Message {
	if p.outBuf == nil {
		p.outBuf = make([]sim.Message, p.deg)
	}
	out := p.outBuf
	for q := range out {
		out[q] = nil
	}
	// A batched run (Options.NodeParams) may drive the union past this
	// node's own schedule; the tail rounds are idle for it.
	if p.deg == 0 || round > p.sched.Total() {
		return out
	}
	seg, local := p.sched.Locate(round)
	switch seg {
	case segPhase1:
		var m sim.Message
		if local%2 == 1 {
			m = offerMsg{Elem: p.currentElem()}
		} else {
			m = statusMsg{RPos: p.rPos}
		}
		for q := range out {
			out[q] = m
		}
	case segCV:
		if !p.oriented {
			p.orient()
		}
		var m sim.Message = cvMsg{Cols: p.forestCols} // boxed once, shared by every port
		for q := range out {
			out[q] = m
		}
	case segShift:
		if !p.shrunk {
			p.shrinkCols()
		}
		var m sim.Message = smallColsMsg{Cols: p.smallCols}
		for q := range out {
			out[q] = m
		}
	case segStars:
		batch := (local - 1) / 2
		forest := batch / 3
		col := int8(batch % 3)
		if local%2 == 1 {
			// Round A: leaves of this batch request.
			if p.parentOf[forest] >= 0 && p.smallCols[forest] == col && p.rPos {
				out[p.parentOf[forest]] = starReq{R: p.r}
			}
		} else {
			// Round B: roots reply with per-leaf increments.
			if p.pendingActive {
				for q := 0; q < p.deg; q++ {
					if p.pendingMask[q] {
						out[q] = starReply{Inc: p.pendingReply[q]}
					}
				}
			}
		}
	}
	return out
}

// Recv implements sim.PortProgram.
func (p *Program) Recv(round int, msgs []sim.Message) {
	if p.deg == 0 || round > p.sched.Total() {
		return
	}
	seg, local := p.sched.Locate(round)
	switch seg {
	case segPhase1:
		if local%2 == 1 {
			p.recvOffers(msgs)
		} else {
			for q, raw := range msgs {
				p.nPos[q] = raw.(statusMsg).RPos
			}
		}
	case segCV:
		p.recvCV(msgs)
	case segShift:
		// local 1,3,5 shift down within palettes 6,5,4;
		// local 2,4,6 eliminate colours 5,4,3.
		iter := (local + 1) / 2 // 1..3
		if local%2 == 1 {
			p.applyShift(7-iter, boxedColAt(msgs)) // palette size 6, 5, 4
		} else {
			p.applyEliminate(int8(6-iter), boxedColAt(msgs)) // eliminate 5, 4, 3
		}
	case segStars:
		batch := (local - 1) / 2
		forest := batch / 3
		col := int8(batch % 3)
		if local%2 == 1 {
			p.recvStarRequests(msgs)
		} else {
			p.recvStarReplies(msgs, forest, col)
		}
	}
}

// applyOffers performs the accept half of one Phase I iteration (paper
// steps (ii)–(iii)): each active edge accepts the minimum of the two
// offers, every node extends its colour sequence, and edges whose
// endpoints appended different elements become multicoloured.  elemAt
// abstracts the decoding — the boxed path reads offerMsg values, the
// wire path rebuilds rationals from their raw lane words — so both
// paths drive one state machine.
func (p *Program) applyOffers(ownElem rational.Rat, elemAt func(q int) rational.Rat) {
	for q := 0; q < p.deg; q++ {
		elem := elemAt(q)
		if p.edgeActive(q) {
			p.pay(q, rational.Min(ownElem, elem))
		}
		if !elem.Equal(ownElem) {
			p.mcol[q] = true
		}
		p.nbrSeq[q] = append(p.nbrSeq[q], elem)
	}
	p.ownSeq = append(p.ownSeq, ownElem)
	p.checkResidual()
}

// recvOffers is the boxed decoder over applyOffers.
func (p *Program) recvOffers(msgs []sim.Message) {
	p.applyOffers(p.currentElem(), func(q int) rational.Rat {
		return msgs[q].(offerMsg).Elem
	})
}

// pay adds inc to port q's edge and takes it off the residual, which so
// stays r(v) = w(v) − Σ y exactly, in value and in representation.
func (p *Program) pay(q int, inc rational.Rat) {
	p.y[q] = p.y[q].Add(inc)
	p.r = p.r.Sub(inc)
}

// checkResidual refreshes the saturation flag after a batch of pays.
func (p *Program) checkResidual() {
	switch p.r.Sign() {
	case -1:
		panic(fmt.Sprintf("edgepack: node overpacked: r = %v", p.r))
	case 0:
		p.rPos = false
	default:
		p.rPos = true
	}
}

// orient computes the Phase II orientation and forest decomposition at
// the transition out of Phase I: unsaturated edges point from lower to
// higher colour, and a node's i-th outgoing edge joins forest i.  It
// then takes the first Cole–Vishkin step itself: a parent's colour is
// its Phase I sequence, which this node already holds in nbrSeq, so the
// step needs no round and every colour leaves it as a word.
func (p *Program) orient() {
	p.oriented = true
	l := layoutOf(p.env.Params)
	delta := l.delta
	if cap(p.parentOf) >= delta {
		p.parentOf = p.parentOf[:delta]
	} else {
		p.parentOf = make([]int, delta)
	}
	for i := range p.parentOf {
		p.parentOf[i] = -1
	}
	forest := 0
	for q := 0; q < p.deg; q++ {
		if !p.rPos || !p.nPos[q] {
			continue // edge saturated in Phase I
		}
		cmp := l.cmp(p.ownSeq, p.nbrSeq[q])
		if cmp == 0 {
			panic("edgepack: unsaturated edge with equal colours after Phase I (Lemma 1 violated)")
		}
		if cmp < 0 {
			// Oriented from lower to higher colour: outgoing.
			p.parentOf[forest] = q
			forest++
		}
	}
	p.forestCols = make([]uint64, delta)
	for i, q := range p.parentOf {
		if q >= 0 {
			p.forestCols[i] = l.cvStep(p.ownSeq, p.nbrSeq[q])
		} else {
			p.forestCols[i] = l.cvRootStep(p.ownSeq)
		}
	}
}

// recvCV performs one Cole–Vishkin step in every forest.  A fresh
// slice is allocated because the previous one was shared with sent
// messages, which consumers may retain.
func (p *Program) recvCV(msgs []sim.Message) {
	next := make([]uint64, len(p.forestCols))
	for i, own := range p.forestCols {
		if q := p.parentOf[i]; q >= 0 {
			next[i] = colour.CVStep64(own, msgs[q].(cvMsg).Cols[i])
		} else {
			next[i] = colour.CVRootStep64(own)
		}
	}
	p.forestCols = next
}

// shrinkCols converts the per-forest colours to the small-int palette
// after the CV segment has brought them into {0..5}.
func (p *Program) shrinkCols() {
	p.shrunk = true
	n := len(p.forestCols)
	p.smallCols = make([]int8, n)
	if cap(p.preShift) >= n {
		p.preShift = p.preShift[:n]
	} else {
		p.preShift = make([]int8, n)
	}
	for i, c := range p.forestCols {
		if c > 5 {
			panic(fmt.Sprintf("edgepack: colour %d escaped the CV plateau", c))
		}
		p.smallCols[i] = int8(c)
	}
}

// applyShift performs a shift-down: every non-root adopts its parent's
// colour; roots rotate within the current palette.  Afterwards the
// children of any node are monochromatic (they all adopted that node's
// previous colour), which the eliminate step exploits.  colAt(q, i)
// reads forest i's colour from the port-q message on either path.  A
// fresh slice is allocated because the previous one was shared with
// sent messages, which consumers (the selfstab tables) may retain.
func (p *Program) applyShift(palette int, colAt func(q, i int) int8) {
	next := make([]int8, len(p.smallCols))
	for i := range p.smallCols {
		p.preShift[i] = p.smallCols[i]
		if q := p.parentOf[i]; q >= 0 {
			next[i] = colAt(q, i)
		} else {
			next[i] = (p.smallCols[i] + 1) % int8(palette)
		}
	}
	p.smallCols = next
}

// applyEliminate recolours every node of colour t into {0,1,2}, avoiding
// its parent's current colour and its children's common colour (the
// node's own pre-shift colour).  Colour class t is independent in every
// forest, so simultaneous moves keep the colouring proper.
func (p *Program) applyEliminate(t int8, colAt func(q, i int) int8) {
	next := append([]int8(nil), p.smallCols...)
	for i := range p.smallCols {
		if p.smallCols[i] != t {
			continue
		}
		var parentCol int8 = -1
		if q := p.parentOf[i]; q >= 0 {
			parentCol = colAt(q, i)
		}
		childCol := p.preShift[i]
		for c := int8(0); c < 3; c++ {
			if c != parentCol && c != childCol {
				next[i] = c
				break
			}
		}
	}
	p.smallCols = next
}

// boxedColAt adapts a boxed message slice to the colAt accessor.
func boxedColAt(msgs []sim.Message) func(q, i int) int8 {
	return func(q, i int) int8 { return msgs[q].(smallColsMsg).Cols[i] }
}

// applyStarRequests runs the root side of a star batch: collect leaf
// residuals, split the root residual proportionally (or fully pay the
// leaves when they fit), apply the increments locally, and queue
// replies.  reqAt(q) decodes the port-q request, reporting false for
// idle ports.  A batch with no request leaves the program untouched
// (the sleep promise; see SleepUntil).
func (p *Program) applyStarRequests(reqAt func(q int) (rational.Rat, bool)) {
	total := rational.Zero
	reqPorts := p.reqPorts[:0]
	for q := 0; q < p.deg; q++ {
		if req, ok := reqAt(q); ok {
			reqPorts = append(reqPorts, q)
			p.pendingReply[q] = req
			total = total.Add(req)
		}
	}
	if len(reqPorts) == 0 {
		return
	}
	p.reqPorts = reqPorts
	p.pendingActive = true
	clear(p.pendingMask)
	if !p.rPos {
		// Root already saturated: every requesting edge is saturated
		// through the root; reply with zero increments.
		for _, q := range reqPorts {
			p.pendingReply[q] = rational.Zero
			p.pendingMask[q] = true
		}
		return
	}
	// α = Σ r(u) / r(v); α <= 1 saturates the leaves, α > 1 the root.
	scaleNeeded := total.Cmp(p.r) > 0
	root := p.r
	for _, q := range reqPorts {
		inc := p.pendingReply[q]
		if scaleNeeded {
			inc = inc.Mul(root).Div(total)
		}
		p.pendingReply[q] = inc
		p.pendingMask[q] = true
		p.pay(q, inc)
	}
	p.checkResidual()
}

// recvStarRequests is the boxed decoder over applyStarRequests.
func (p *Program) recvStarRequests(msgs []sim.Message) {
	p.applyStarRequests(func(q int) (rational.Rat, bool) {
		if req, ok := msgs[q].(starReq); ok {
			return req.R, true
		}
		return rational.Zero, false
	})
}

// applyStarReplies runs the leaf side: apply the root's increment.
// incAt(q) decodes the port-q reply, reporting false when there is none.
func (p *Program) applyStarReplies(forest int, col int8, incAt func(q int) (rational.Rat, bool)) {
	if p.parentOf[forest] >= 0 && p.smallCols[forest] == col {
		q := p.parentOf[forest]
		if inc, ok := incAt(q); ok {
			p.pay(q, inc)
			p.checkResidual()
		}
	}
	p.pendingActive = false
}

// recvStarReplies is the boxed decoder over applyStarReplies.
func (p *Program) recvStarReplies(msgs []sim.Message, forest int, col int8) {
	p.applyStarReplies(forest, col, func(q int) (rational.Rat, bool) {
		if rep, ok := msgs[q].(starReply); ok {
			return rep.Inc, true
		}
		return rational.Zero, false
	})
}

// SleepUntil implements sim.Sleeper.  Phase I, Cole–Vishkin and the
// shift rounds are dense.  In the star rounds a node speaks only as a
// requesting leaf or as a root with replies queued, so after round r it
// runs the next round when r left it replies to send or a reply to
// await, and otherwise sleeps to the request round of its next batch
// as a leaf — or past the end, once it is saturated, has no batch left
// or has run out of schedule (the tail of a batched NodeParams run).
// A root's requests wake it.
func (p *Program) SleepUntil(r int) int {
	if p.deg == 0 || r >= p.sched.Total() {
		return math.MaxInt
	}
	// The stars are the schedule's last 6Δ rounds (ScheduleFor); cur is
	// r's index among them, 0 for the last shift round.
	cur := r - (p.sched.Total() - 6*p.env.Params.Delta)
	if cur < 0 {
		return r + 1
	}
	if cur%2 == 1 {
		// r was batch b's request round.
		b := cur / 2
		if f := b / 3; p.pendingActive || p.parentOf[f] >= 0 && p.smallCols[f] == int8(b%3) && p.rPos {
			return r + 1
		}
	}
	if !p.rPos {
		return math.MaxInt
	}
	// Batch b requests in star round 2b+1; batches are ordered by forest,
	// then colour, and forest f's leaf requests in batch 3f+smallCols[f].
	next := (cur + 1) / 2
	for f := next / 3; f < len(p.parentOf); f++ {
		if b := 3*f + int(p.smallCols[f]); p.parentOf[f] >= 0 && b >= next {
			return r - cur + 2*b + 1
		}
	}
	return math.MaxInt
}

// NodeResult is a node's final output.
type NodeResult struct {
	Y        []rational.Rat // y(e) for each port
	InCover  bool           // saturated, i.e. y[v] == w_v
	Residual rational.Rat
}

// Output implements sim.PortProgram.
func (p *Program) Output() any {
	return NodeResult{Y: p.y, InCover: !p.rPos, Residual: p.r}
}

// Result is the assembled outcome of a run.
type Result struct {
	Y      []rational.Rat // maximal edge packing, per edge
	Cover  []bool         // saturated nodes: 2-approximate min-weight VC
	Rounds int
	Stats  sim.Stats
}

// CoverWeight returns the weight of the computed cover.
func (r *Result) CoverWeight(g *graph.G) int64 {
	var w int64
	for v, in := range r.Cover {
		if in {
			w += g.Weight(v)
		}
	}
	return w
}

// Options configure a run.
type Options struct {
	Engine  sim.Engine
	Workers int
	// Delta and W, when non-zero, override the globally known upper
	// bounds on degree and weight (paper Section 1.4: the parameters
	// may be intrinsic hardware constraints rather than exact graph
	// maxima).  They must not be smaller than the actual values.
	Delta int
	W     int64
	// Topology, when non-nil, is a pre-built view of g — a CSR
	// *graph.FlatTopology or a partitioned *shard.Topology — reused
	// across runs to amortize flattening and partitioning.  It must
	// describe exactly g's port structure.
	Topology sim.Topology
	// Context, RoundBudget, Observer and Pool are passed through to the
	// simulator (see sim.Options); they are what turn one-shot runs
	// into serveable requests: cancellation and budget enforcement at
	// the round barrier, per-round progress streaming, and reusable
	// execution resources.
	Context     context.Context
	RoundBudget int
	Observer    func(sim.RoundInfo)
	Pool        *sim.Pool
	// Dist is the process-spanning runner required when Engine is
	// sim.Distributed (see sim.Options.Dist); ignored otherwise.
	Dist sim.DistRunner
	// NoWire forces the boxed simulator path (sim.Options.NoWire); the
	// equivalence tests and ablation benchmarks use it.  Results are
	// identical either way.
	NoWire bool
	// NodeParams, when non-nil, assigns every node its own (Δ, W)
	// parameters instead of the global graph-derived pair.  It exists
	// for batched execution over a disjoint union of instances: every
	// node of a connected component must carry that component's own
	// solo parameters (the caller's obligation — parameters are global
	// knowledge *within* an instance), so each component follows
	// exactly the schedule its solo run would, and nodes whose
	// schedule is shorter than the union's longest simply idle through
	// the tail rounds.  Mutually exclusive with Delta/W overrides.
	// When the parameters are not uniform across nodes the run takes
	// the boxed path: wire lane geometry is derived from one node's
	// codec and trusted for all, which only uniform parameters satisfy
	// (results are bit-identical either way).
	NodeParams []sim.Params
	// Programs, when non-nil, recycles the per-node Program state
	// across runs through the Reset protocol, removing the per-node
	// setup allocations a compiled Solver would otherwise pay on every
	// request.  Safe for concurrent runs.
	Programs *ProgramPool
}

// ProgramPool recycles []*Program slabs across runs through the Reset
// protocol (sim.ProgPool).  A Solver session holds one per algorithm.
type ProgramPool struct {
	pool sim.ProgPool[*Program]
}

// Get returns one Reset program per environment.
func (pl *ProgramPool) Get(envs []sim.Env) []*Program { return pl.pool.Get(envs, New) }

// Put parks a slab for reuse; Get resets it before the next run.
func (pl *ProgramPool) Put(ps []*Program) { pl.pool.Put(ps) }

// Run executes the algorithm on g and assembles the result.  Both copies
// of every edge value are cross-checked for consistency.  It returns an
// error when a declared bound is below the actual graph maximum or when
// the simulator stops early (cancelled context, exhausted round budget).
//
// The run takes the simulator's wire path by default; should a value
// outgrow its declared lane (sim.ErrWireOverflow — possible only for
// parameter ranges far past Lemma 2's practical envelope), the programs
// are rebuilt and the run repeats on the boxed path, so callers always
// get the boxed-path answer bit for bit.
func Run(g *graph.G, opt Options) (*Result, error) {
	params := sim.GraphParams(g)
	if opt.Delta != 0 {
		if opt.Delta < params.Delta {
			return nil, fmt.Errorf("edgepack: declared Δ=%d below actual %d", opt.Delta, params.Delta)
		}
		params.Delta = opt.Delta
	}
	if opt.W != 0 {
		if opt.W < params.W {
			return nil, fmt.Errorf("edgepack: declared W=%d below actual %d", opt.W, params.W)
		}
		params.W = opt.W
	}
	envs := sim.GraphEnvs(g, params)
	rounds := Rounds(params)
	noWire := opt.NoWire
	if opt.NodeParams != nil {
		if opt.Delta != 0 || opt.W != 0 {
			return nil, fmt.Errorf("edgepack: NodeParams excludes the global Delta/W overrides")
		}
		if len(opt.NodeParams) != g.N() {
			return nil, fmt.Errorf("edgepack: %d NodeParams for %d nodes", len(opt.NodeParams), g.N())
		}
		rounds = 0
		roundsOf := make(map[sim.Params]int)
		for v := range envs {
			p := opt.NodeParams[v]
			if p.Delta < g.Deg(v) {
				return nil, fmt.Errorf("edgepack: node %d declares Δ=%d below its degree %d", v, p.Delta, g.Deg(v))
			}
			if p.W < g.Weight(v) {
				return nil, fmt.Errorf("edgepack: node %d declares W=%d below its weight %d", v, p.W, g.Weight(v))
			}
			envs[v].Params = p
			r, ok := roundsOf[p]
			if !ok {
				r = Rounds(p)
				roundsOf[p] = r
			}
			if r > rounds {
				rounds = r
			}
			if p != opt.NodeParams[0] {
				noWire = true // heterogeneous lanes cannot share one codec
			}
		}
	}
	top := sim.Topology(g)
	if opt.Topology != nil {
		top = opt.Topology
	}
	res, err := runOnce(g, envs, rounds, top, opt, noWire)
	if err == sim.ErrWireOverflow {
		res, err = runOnce(g, envs, rounds, top, opt, true)
	}
	return res, err
}

// runOnce executes one simulator run plus result assembly.
func runOnce(g *graph.G, envs []sim.Env, rounds int, top sim.Topology, opt Options, noWire bool) (*Result, error) {
	var nodes []*Program
	if opt.Programs != nil {
		nodes = opt.Programs.Get(envs)
		defer opt.Programs.Put(nodes)
	} else {
		nodes = make([]*Program, g.N())
		for v := range nodes {
			nodes[v] = New(envs[v])
		}
	}
	progs := make([]sim.PortProgram, g.N())
	for v := range progs {
		progs[v] = nodes[v]
	}
	stats, err := sim.RunPort(top, progs, rounds, sim.Options{
		Engine: opt.Engine, Workers: opt.Workers, Dist: opt.Dist,
		Context: opt.Context, RoundBudget: opt.RoundBudget,
		Observer: opt.Observer, Pool: opt.Pool, NoWire: noWire,
	})
	if err != nil {
		return nil, err
	}

	outs := make([]NodeResult, g.N())
	for v := range outs {
		outs[v] = nodes[v].Output().(NodeResult)
	}
	res, aerr := AssembleResult(g, outs, rounds, stats)
	if aerr != nil {
		panic(aerr)
	}
	return res, nil
}

// AssembleResult turns per-node outputs into a run Result: the edge
// packing gathered from both endpoints (which must agree — a
// disagreement means the outputs do not come from one lockstep run)
// and the cover bits.  Exported for the distributed coordinator, which
// gathers NodeResults from workers over the wire and assembles them
// exactly as an in-process run would.
func AssembleResult(g *graph.G, outs []NodeResult, rounds int, stats sim.Stats) (*Result, error) {
	if len(outs) != g.N() {
		return nil, fmt.Errorf("edgepack: %d node outputs for %d nodes", len(outs), g.N())
	}
	res := &Result{
		Y:      make([]rational.Rat, g.M()),
		Cover:  make([]bool, g.N()),
		Rounds: rounds,
		Stats:  stats,
	}
	seen := make([]bool, g.M())
	for v := 0; v < g.N(); v++ {
		out := outs[v]
		res.Cover[v] = out.InCover
		if len(out.Y) != g.Deg(v) {
			return nil, fmt.Errorf("edgepack: node %d output carries %d port values, degree %d",
				v, len(out.Y), g.Deg(v))
		}
		for q, h := range g.Ports(v) {
			if !seen[h.Edge] {
				seen[h.Edge] = true
				res.Y[h.Edge] = out.Y[q]
			} else if !res.Y[h.Edge].Equal(out.Y[q]) {
				return nil, fmt.Errorf("edgepack: endpoints disagree on edge %d: %v vs %v",
					h.Edge, res.Y[h.Edge], out.Y[q])
			}
		}
	}
	return res, nil
}

// MustRun is Run for callers with statically valid options (experiments,
// tests, benchmarks); it panics on error.
func MustRun(g *graph.G, opt Options) *Result {
	res, err := Run(g, opt)
	if err != nil {
		panic(err)
	}
	return res
}
