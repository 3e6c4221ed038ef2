// Package bcastvc implements Section 5 of Åstrand & Suomela (SPAA 2010):
// maximal edge packing — and hence 2-approximate minimum-weight vertex
// cover — in the broadcast model, in O(Δ² + Δ·log* W) rounds.
//
// The edge-packing instance (G, w) is recast as the fractional-packing
// instance (H, w) with f = 2 and k = Δ: every node v becomes a subset
// node s(v) and every edge e an element node u(e).  The fracpack
// algorithm runs on H, but H's element nodes have no physical host, so
// every node v of G simulates s(v) and all incident elements u(e).
//
// Following the paper, each node broadcasts its subset node's full
// message history h(v, i-1) in round i.  Because the broadcast model
// delivers an unordered multiset, a node cannot associate histories with
// particular neighbours — but it does not have to: an element u(e) is a
// deterministic function of the unordered pair of endpoint histories, so
// v simulates one element per received history.  Histories are matched
// across rounds by sorting on a canonical fingerprint; sequence-prefix
// monotonicity of the ordering makes the pairing consistent, and
// neighbours with identical histories have identical element states, so
// any tie-breaking works.  The price is message growth linear in the
// round number — the "increased message complexity" the paper notes.
package bcastvc

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"anoncover/internal/core/fracpack"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// sep joins per-round fingerprints into a history fingerprint.  It must
// sort below every character that can appear inside a fingerprint so that
// lexicographic order on joined strings equals lexicographic order on
// fingerprint sequences — the property that makes the sort prefix-
// monotone and the round-over-round pairing consistent.
const sep = "\x01"

// hMsg is the wire message: the full history of the sender's subset node.
type hMsg struct {
	H []sim.Message
}

func (m hMsg) WireSize() int {
	n := 1
	for _, inner := range m.H {
		if s, ok := inner.(sim.Sizer); ok {
			n += s.WireSize()
		} else {
			n++
		}
	}
	return n
}

// HParams derives the parameters of the simulated instance H from the
// graph parameters: f = 2, k = Δ.
func HParams(g sim.Params) sim.Params {
	return sim.Params{F: 2, K: g.Delta, W: g.W}
}

// Rounds returns the number of broadcast rounds on G: the H schedule plus
// the initial history exchange.
func Rounds(g sim.Params) int {
	h := fracpack.Rounds(HParams(g))
	if h == 0 {
		return 0
	}
	return h + 1
}

// elemSim is one simulated element node u(e), identified only by the
// history of the far endpoint's subset node.
type elemSim struct {
	prog    *fracpack.ElemProgram
	nbrFP   []string // fingerprints of the consumed neighbour history
	nbrJoin string   // nbrFP joined with sep, cached for sorting
}

// Program is the per-node broadcast program on G.  It implements
// sim.BroadcastProgram but not sim.Sleeper: every node sends its
// history every round.  The simulated fracpack programs are named
// fields, never embedded, so Program cannot inherit their SleepUntil.
type Program struct {
	env     sim.Env
	hParams sim.Params
	hRounds int

	sub     *fracpack.SubsetProgram
	ownHist []sim.Message
	ownFP   []string
	sims    []*elemSim

	// MaxMsgBytes records the largest broadcast payload, exposing the
	// linear message growth of the history simulation.
	MaxMsgBytes int
}

// New returns an initialized node program; env carries G's degree,
// weight, and graph parameters (Delta, W).
func New(env sim.Env) *Program {
	p := &Program{}
	p.Reset(env)
	return p
}

// Reset re-initializes the program for a fresh run in the given
// environment, reusing the simulated subset and element programs (and
// their message arenas) through their own Reset protocols.  It is the
// pooling protocol ProgramPool drives; the previous run's messages and
// histories must be unreachable by the time Reset is called.
func (p *Program) Reset(env sim.Env) {
	hp := HParams(env.Params)
	// The simulated schedule depends only on the parameters: a
	// weight-snapshot rerun keeps the cached round count.
	if env.Params != p.env.Params || p.hRounds == 0 {
		p.hRounds = fracpack.Rounds(hp)
	}
	p.env = env
	p.hParams = hp
	subEnv := sim.Env{
		Degree: env.Degree,
		Weight: env.Weight,
		Kind:   sim.KindSubset,
		Params: hp,
	}
	if p.sub == nil {
		p.sub = fracpack.NewSubset(subEnv)
	} else {
		p.sub.Reset(subEnv)
	}
	elemEnv := sim.Env{Degree: 2, Kind: sim.KindElement, Params: hp}
	if cap(p.sims) >= env.Degree {
		p.sims = p.sims[:env.Degree]
	} else {
		p.sims = make([]*elemSim, env.Degree)
	}
	for i := range p.sims {
		if s := p.sims[i]; s != nil {
			s.prog.Reset(elemEnv)
			s.nbrFP = s.nbrFP[:0]
			s.nbrJoin = ""
		} else {
			p.sims[i] = &elemSim{prog: fracpack.NewElement(elemEnv)}
		}
	}
	p.ownHist = p.ownHist[:0]
	p.ownFP = p.ownFP[:0]
	p.MaxMsgBytes = 0
}

// ProgramPool recycles []*Program slabs across runs through the Reset
// protocol (sim.ProgPool).
type ProgramPool struct {
	pool sim.ProgPool[*Program]
}

// Get returns one Reset program per environment.
func (pl *ProgramPool) Get(envs []sim.Env) []*Program { return pl.pool.Get(envs, New) }

// Put parks a slab for reuse; Get resets it before the next run.
func (pl *ProgramPool) Put(ps []*Program) { pl.pool.Put(ps) }

// Init implements sim.BroadcastProgram; New performs the work.
func (p *Program) Init(env sim.Env) {}

// Send implements sim.BroadcastProgram: round i broadcasts h(v, i-1).
func (p *Program) Send(round int) sim.Message {
	m := hMsg{H: p.ownHist}
	if b := m.WireSize(); b > p.MaxMsgBytes {
		p.MaxMsgBytes = b
	}
	return m
}

// Recv implements sim.BroadcastProgram: receive the neighbours' histories
// h(u, i-1), advance the simulation of all incident elements and of s(v)
// through H-round i-1, and extend the own history with m_{s(v)}(i).
func (p *Program) Recv(round int, msgs []sim.Message) {
	in := make([]hMsg, len(msgs))
	for j, raw := range msgs {
		m, ok := raw.(hMsg)
		if !ok {
			panic(fmt.Sprintf("bcastvc: unexpected message %T", raw))
		}
		if len(m.H) != round-1 {
			panic(fmt.Sprintf("bcastvc: round %d received history of length %d", round, len(m.H)))
		}
		in[j] = m
	}
	if round >= 2 {
		p.advance(round-1, in)
	}
	if round <= p.hRounds {
		p.ownHist = append(p.ownHist, p.sub.Send(round))
		p.ownFP = append(p.ownFP, fracpack.Fingerprint(p.ownHist[len(p.ownHist)-1]))
	}
}

// advance executes H-round t for the subset node and all element sims,
// after matching the incoming histories to the element sims.
func (p *Program) advance(t int, in []hMsg) {
	// Sort the incoming histories canonically.  Sorting is prefix-
	// monotone, and sims are kept sorted by their consumed prefix, so
	// index pairing is consistent; equal prefixes mean equal sim states,
	// making ties harmless.
	fps := make([]string, len(in))
	for j, m := range in {
		var b strings.Builder
		for r, inner := range m.H {
			if r > 0 {
				b.WriteString(sep)
			}
			b.WriteString(fracpack.Fingerprint(inner))
		}
		fps[j] = b.String()
	}
	order := make([]int, len(in))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return fps[order[a]] < fps[order[b]] })
	sort.SliceStable(p.sims, func(a, b int) bool { return p.sims[a].nbrJoin < p.sims[b].nbrJoin })

	subMsg := p.ownHist[t-1]
	elemOut := make([]sim.Message, len(p.sims))
	for j, s := range p.sims {
		m := in[order[j]]
		newFP := fracpack.Fingerprint(m.H[t-1])
		want := newFP
		if s.nbrJoin != "" {
			want = s.nbrJoin + sep + newFP
		}
		if fps[order[j]] != want {
			panic(fmt.Sprintf("bcastvc: history pairing lost prefix consistency at H-round %d", t))
		}
		elemOut[j] = s.prog.Send(t)
		// Element u(e) hears the unordered pair of endpoint messages.
		s.prog.Recv(t, []sim.Message{subMsg, m.H[t-1]})
		s.nbrFP = append(s.nbrFP, newFP)
		s.nbrJoin = fps[order[j]]
	}
	p.sub.Recv(t, elemOut)
}

// NodeResult is a node's final output: the subset decision plus the
// multiset of incident edge values, keyed by the (sorted) neighbour
// history fingerprints.
type NodeResult struct {
	InCover  bool
	Residual rational.Rat
	EdgeY    []rational.Rat // sorted to match NeighbourFPs
	NbrFPs   []string
}

// Output implements sim.BroadcastProgram.
func (p *Program) Output() any {
	out := NodeResult{}
	sub := p.sub.Output().(fracpack.SubsetResult)
	out.InCover = sub.InCover
	out.Residual = sub.Residual
	sort.SliceStable(p.sims, func(a, b int) bool { return p.sims[a].nbrJoin < p.sims[b].nbrJoin })
	for _, s := range p.sims {
		er := s.prog.Output().(fracpack.ElemResult)
		out.EdgeY = append(out.EdgeY, er.Y)
		out.NbrFPs = append(out.NbrFPs, s.nbrJoin)
	}
	return out
}

// ownJoin returns the fingerprint of the node's full subset history.
func (p *Program) ownJoin() string {
	var b strings.Builder
	for i, fp := range p.ownFP {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(fp)
	}
	return b.String()
}

// Result is the assembled outcome of a run on G.
type Result struct {
	Y           []rational.Rat // maximal edge packing, per edge of G
	Cover       []bool         // 2-approximate minimum-weight vertex cover
	Rounds      int            // broadcast rounds on G
	HRounds     int            // simulated rounds of the H algorithm
	Stats       sim.Stats
	MaxMsgBytes int // largest single broadcast payload
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
	Engine       sim.Engine
	Workers      int
	ScrambleSeed int64
	// Delta and W, when non-zero, override the globally known upper
	// bounds on degree and weight (paper Section 1.4), exactly as in
	// the port-numbering algorithm: the simulated instance H gets
	// k = Delta and the schedule grows to O(Δ² + Δ·log* W) in the
	// declared values.  They must not be below the actual maxima.
	Delta int
	W     int64
	// Topology, when non-nil, is a pre-built view of g reused across
	// runs; see edgepack.Options.Topology.
	Topology sim.Topology
	// Context, RoundBudget, Observer and Pool are passed through to the
	// simulator (see sim.Options).
	Context     context.Context
	RoundBudget int
	Observer    func(sim.RoundInfo)
	Pool        *sim.Pool
	// Dist is the process-spanning runner required when Engine is
	// sim.Distributed (see sim.Options.Dist); ignored otherwise.
	Dist sim.DistRunner
	// NoWire forces the boxed simulator delivery path; results are
	// identical either way (equivalence tests and ablations).
	NoWire bool
	// Programs, when non-nil, recycles the per-node Program state
	// across runs through the Reset protocol.
	Programs *ProgramPool
}

// Run executes the broadcast-model vertex cover algorithm on g.  It
// returns an error when a declared bound is below the actual graph
// maximum or when the simulator stops early (cancelled context,
// exhausted round budget).
func Run(g *graph.G, opt Options) (*Result, error) {
	params := sim.GraphParams(g)
	if opt.Delta != 0 {
		if opt.Delta < params.Delta {
			return nil, fmt.Errorf("bcastvc: declared Δ=%d below actual %d", opt.Delta, params.Delta)
		}
		params.Delta = opt.Delta
	}
	if opt.W != 0 {
		if opt.W < params.W {
			return nil, fmt.Errorf("bcastvc: declared W=%d below actual %d", opt.W, params.W)
		}
		params.W = opt.W
	}
	envs := sim.GraphEnvs(g, params)
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
	progs := make([]sim.BroadcastProgram, g.N())
	for v := range progs {
		progs[v] = nodes[v]
	}
	rounds := Rounds(params)
	top := sim.Topology(g)
	if opt.Topology != nil {
		top = opt.Topology
	}
	stats, err := sim.RunBroadcast(top, progs, rounds, sim.Options{
		Engine: opt.Engine, Workers: opt.Workers, ScrambleSeed: opt.ScrambleSeed,
		Dist: opt.Dist, Context: opt.Context, RoundBudget: opt.RoundBudget,
		Observer: opt.Observer, Pool: opt.Pool, NoWire: opt.NoWire,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Y:       make([]rational.Rat, g.M()),
		Cover:   make([]bool, g.N()),
		Rounds:  rounds,
		HRounds: fracpack.Rounds(HParams(params)),
		Stats:   stats,
	}
	// Assemble per-edge values: for each node, sort its ports by the
	// neighbour's final history fingerprint and pair them with the
	// node's (equally sorted) element sims.  Neighbours with identical
	// histories have identical edge values, so ties are harmless.
	outs := make([]NodeResult, g.N())
	for v := range nodes {
		outs[v] = nodes[v].Output().(NodeResult)
		res.Cover[v] = outs[v].InCover
		if nodes[v].MaxMsgBytes > res.MaxMsgBytes {
			res.MaxMsgBytes = nodes[v].MaxMsgBytes
		}
	}
	seen := make([]bool, g.M())
	for v := 0; v < g.N(); v++ {
		ports := append([]graph.Half(nil), g.Ports(v)...)
		sort.SliceStable(ports, func(a, b int) bool {
			return nodes[ports[a].To].ownJoin() < nodes[ports[b].To].ownJoin()
		})
		for idx, h := range ports {
			if outs[v].NbrFPs[idx] != nodes[h.To].ownJoin() {
				panic("bcastvc: edge assembly fingerprint mismatch")
			}
			yv := outs[v].EdgeY[idx]
			if !seen[h.Edge] {
				seen[h.Edge] = true
				res.Y[h.Edge] = yv
			} else if !res.Y[h.Edge].Equal(yv) {
				panic(fmt.Sprintf("bcastvc: endpoints disagree on edge %d: %v vs %v",
					h.Edge, res.Y[h.Edge], yv))
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
