package fracpack

import (
	"context"
	"fmt"

	"anoncover/internal/bipartite"
	"anoncover/internal/check"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// Result is the assembled outcome of a run.
type Result struct {
	Y               []rational.Rat // maximal fractional packing, per element
	Cover           []bool         // saturated subsets: f-approximate set cover
	Rounds          int            // rounds actually executed
	ScheduledRounds int            // the deterministic O(f²k² + fk log* W) schedule
	Stats           sim.Stats
}

// CoverWeight returns the weight of the computed cover.
func (r *Result) CoverWeight(ins *bipartite.Instance) int64 {
	return ins.CoverWeight(r.Cover)
}

// Options configure a run.
type Options struct {
	Engine       sim.Engine
	Workers      int
	ScrambleSeed int64
	// EarlyExit stops the simulation at an iteration boundary once the
	// packing is already maximal.  This is a simulator-side optimisation
	// (ablation A3): real anonymous nodes cannot detect global
	// saturation, so ScheduledRounds remains the honest cost.
	EarlyExit bool
	// F, K and W, when non-zero, override the globally known upper
	// bounds (paper Section 1.4); they must not be below the actual
	// instance values.
	F, K int
	W    int64
	// Topology, when non-nil, is a pre-built view of ins — a CSR
	// *graph.FlatTopology or a partitioned *shard.Topology — reused
	// across runs to amortize flattening and partitioning.
	Topology sim.Topology
	// Context, RoundBudget, Observer and Pool are passed through to the
	// simulator (see sim.Options).  With EarlyExit the schedule runs in
	// iteration-sized chunks; the budget counts and the observer sees
	// rounds cumulatively across the chunks.
	Context     context.Context
	RoundBudget int
	Observer    func(sim.RoundInfo)
	Pool        *sim.Pool
	// Dist is the process-spanning runner required when Engine is
	// sim.Distributed (see sim.Options.Dist); ignored otherwise.
	Dist sim.DistRunner
	// NoWire forces the boxed simulator delivery path (the broadcast
	// model's interned value tables are part of the wire path); results
	// are identical either way.  Used by equivalence tests and
	// ablations.
	NoWire bool
	// Programs, when non-nil, recycles the per-node program state
	// across runs through the Reset protocol; a compiled SetCoverSolver
	// holds one so repeated runs skip the per-node setup allocations.
	Programs *ProgramPool
}

// ProgramPool recycles program slabs across runs through the Reset
// protocol (sim.ProgPool): one pool for the subset side, one for the
// element side, each matched by its own node count.
type ProgramPool struct {
	subs  sim.ProgPool[*SubsetProgram]
	elems sim.ProgPool[*ElemProgram]
}

// Get returns Reset subset and element programs for ins.  Subset nodes
// are 0..S-1 and element nodes S..N-1 (the bipartite node layout), so
// envs splits cleanly between the two pools.
func (pl *ProgramPool) Get(ins *bipartite.Instance, envs []sim.Env) ([]*SubsetProgram, []*ElemProgram) {
	return pl.subs.Get(envs[:ins.S()], NewSubset), pl.elems.Get(envs[ins.S():], NewElement)
}

// Put parks the slabs for reuse; Get resets them before the next run.
func (pl *ProgramPool) Put(subs []*SubsetProgram, elems []*ElemProgram) {
	pl.subs.Put(subs)
	pl.elems.Put(elems)
}

// offsetProg shifts a program's round numbering so a schedule can be run
// in chunks.  It forwards the inner program's sleep hints in its own
// numbering, so EarlyExit chunks sleep like a whole run.
type offsetProg struct {
	inner program
	off   int
}

// program is what both node programs implement.
type program interface {
	sim.BroadcastProgram
	sim.Sleeper
}

func (o *offsetProg) Init(env sim.Env)               {}
func (o *offsetProg) Send(r int) sim.Message         { return o.inner.Send(r + o.off) }
func (o *offsetProg) Recv(r int, msgs []sim.Message) { o.inner.Recv(r+o.off, msgs) }
func (o *offsetProg) Output() any                    { return o.inner.Output() }
func (o *offsetProg) SleepUntil(r int) int           { return o.inner.SleepUntil(r+o.off) - o.off }

// Run executes the algorithm on ins and assembles the result.  Both
// sides of the distributed state are cross-checked for consistency.  It
// returns an error for an uncoverable instance, a declared bound below
// the actual instance value, or an early simulator stop (cancelled
// context, exhausted round budget).
func Run(ins *bipartite.Instance, opt Options) (*Result, error) {
	for v := ins.S(); v < ins.N(); v++ {
		if ins.Deg(v) == 0 {
			return nil, fmt.Errorf("fracpack: element %d belongs to no subset; the instance has no cover",
				ins.ElementIndex(v))
		}
	}
	params := sim.BipartiteParams(ins)
	if opt.F != 0 {
		if opt.F < params.F {
			return nil, fmt.Errorf("fracpack: declared f=%d below actual %d", opt.F, params.F)
		}
		params.F = opt.F
	}
	if opt.K != 0 {
		if opt.K < params.K {
			return nil, fmt.Errorf("fracpack: declared k=%d below actual %d", opt.K, params.K)
		}
		params.K = opt.K
	}
	if opt.W != 0 {
		if opt.W < params.W {
			return nil, fmt.Errorf("fracpack: declared W=%d below actual %d", opt.W, params.W)
		}
		params.W = opt.W
	}
	envs := sim.BipartiteEnvs(ins, params)
	var subs []*SubsetProgram
	var elems []*ElemProgram
	if opt.Programs != nil {
		subs, elems = opt.Programs.Get(ins, envs)
		defer opt.Programs.Put(subs, elems)
	} else {
		subs = make([]*SubsetProgram, ins.S())
		elems = make([]*ElemProgram, ins.U())
		for v := 0; v < ins.N(); v++ {
			if ins.IsSubset(v) {
				subs[v] = NewSubset(envs[v])
			} else {
				elems[ins.ElementIndex(v)] = NewElement(envs[v])
			}
		}
	}
	progs := make([]sim.BroadcastProgram, ins.N())
	for v := range progs {
		if ins.IsSubset(v) {
			progs[v] = subs[v]
		} else {
			progs[v] = elems[ins.ElementIndex(v)]
		}
	}
	scheduled := Rounds(params)
	top := sim.Topology(ins)
	if opt.Topology != nil {
		top = opt.Topology
	}
	simOpt := sim.Options{
		Engine: opt.Engine, Workers: opt.Workers, ScrambleSeed: opt.ScrambleSeed,
		Dist: opt.Dist, Context: opt.Context, Pool: opt.Pool, NoWire: opt.NoWire,
	}

	res := &Result{ScheduledRounds: scheduled}
	if !opt.EarlyExit {
		simOpt.RoundBudget = opt.RoundBudget
		simOpt.Observer = opt.Observer
		st, err := sim.RunBroadcast(top, progs, scheduled, simOpt)
		if err != nil {
			return nil, err
		}
		res.Stats = st
		res.Rounds = scheduled
	} else {
		lay := newLayout(params)
		wrapped := make([]sim.BroadcastProgram, len(progs))
		for i, pr := range progs {
			wrapped[i] = &offsetProg{inner: pr.(program)}
		}
		for done := 0; done < scheduled; {
			for i := range wrapped {
				wrapped[i].(*offsetProg).off = done
			}
			chunkOpt := simOpt
			if opt.RoundBudget > 0 {
				rem := opt.RoundBudget - done
				if rem <= 0 {
					return nil, sim.ErrRoundBudget
				}
				chunkOpt.RoundBudget = rem
			}
			if obs := opt.Observer; obs != nil {
				// Re-base the chunk-local observations onto the global
				// schedule so callers see one monotone round stream.
				off, prev := done, res.Stats
				chunkOpt.Observer = func(ri sim.RoundInfo) {
					ri.Round += off
					ri.Total = scheduled
					ri.Messages += prev.Messages
					ri.Bytes += prev.Bytes
					obs(ri)
				}
			}
			st, err := sim.RunBroadcast(top, wrapped, lay.perIter, chunkOpt)
			if err != nil {
				return nil, err
			}
			done += lay.perIter
			res.Rounds = done
			res.Stats.Rounds += st.Rounds
			res.Stats.Messages += st.Messages
			res.Stats.Bytes += st.Bytes
			if maximalNow(ins, elems) {
				break
			}
		}
	}

	res.Y = make([]rational.Rat, ins.U())
	for u, ep := range elems {
		out := ep.Output().(ElemResult)
		res.Y[u] = out.Y
	}
	res.Cover = make([]bool, ins.S())
	loads := check.SubsetLoads(ins, res.Y)
	for s, sp := range subs {
		out := sp.Output().(SubsetResult)
		res.Cover[s] = out.InCover
		// The subset's tracked residual must agree with the recomputed
		// one — a distributed-consistency cross-check.
		want := rational.FromInt(ins.Weight(s)).Sub(loads[s])
		if !out.Residual.Equal(want) {
			panic(fmt.Sprintf("fracpack: subset %d residual drift: tracked %v, actual %v",
				s, out.Residual, want))
		}
	}
	return res, nil
}

// MustRun is Run for callers with statically valid options (experiments,
// tests, benchmarks); it panics on error.
func MustRun(ins *bipartite.Instance, opt Options) *Result {
	res, err := Run(ins, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// maximalNow reports whether the packing held by the element programs is
// already maximal (simulator-side check for EarlyExit).
func maximalNow(ins *bipartite.Instance, elems []*ElemProgram) bool {
	y := make([]rational.Rat, len(elems))
	for u, ep := range elems {
		y[u] = ep.y
	}
	return check.FracPackingMaximal(ins, y) == nil
}
