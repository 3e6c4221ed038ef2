package anoncover

import (
	"context"
	"fmt"

	"anoncover/internal/core/edgepack"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// BatchRunner executes many independent vertex-cover instances under a
// single simulator barrier: the instances are packed into one graph as
// disjoint components and run together, amortizing the per-run setup
// (worker checkout, arenas, round barriers) across all of them.  The
// runner holds the persistent execution pools a compiled Solver would,
// so consecutive batches reuse worker goroutines, arenas and node
// programs; each VertexCover call checks them out once for the whole
// batch.
//
// Every component runs its own instance's parameters and schedule
// (edgepack.Options.NodeParams), and components exchange no messages,
// so each instance's cover, packing and round count are bit-identical
// to a solo run of that instance.  Messages and Bytes on the returned
// results are the batch totals — the sum of what the solo runs would
// have delivered — since the simulator counts them globally.
//
// A BatchRunner is safe for concurrent use.  Close releases the pooled
// worker goroutines (batches issued after Close still work, paying the
// per-batch setup again).
type BatchRunner struct {
	cfg   config
	pool  *sim.Pool
	progs *edgepack.ProgramPool
}

// NewBatchRunner builds a runner with the given session defaults.
// WithDegreeBound and WithWeightBound are rejected: batch runs derive
// each instance's bounds from the instance itself, which is what keeps
// batched results bit-identical to solo runs.
func NewBatchRunner(opts ...Option) (*BatchRunner, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.delta != 0 || c.maxW != 0 {
		return nil, fmt.Errorf("anoncover: batch runs derive per-instance bounds; WithDegreeBound/WithWeightBound do not apply")
	}
	return &BatchRunner{cfg: c, pool: sim.NewPool(), progs: &edgepack.ProgramPool{}}, nil
}

// Close releases the runner's pooled worker goroutines.
func (b *BatchRunner) Close() error {
	b.pool.Close()
	return nil
}

// VertexCover runs the Section 3 algorithm on every instance of the
// batch in one pooled simulator run and returns one result per input,
// in input order.  The context is polled at the shared round barrier;
// cancelling it abandons the whole batch.
func (b *BatchRunner) VertexCover(ctx context.Context, gs []*Graph, opts ...Option) ([]*VertexCoverResult, error) {
	if len(gs) == 0 {
		return nil, nil
	}
	c := b.cfg
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.delta != 0 || c.maxW != 0 {
		return nil, fmt.Errorf("anoncover: batch runs derive per-instance bounds; WithDegreeBound/WithWeightBound do not apply")
	}
	inner := make([]*graph.G, len(gs))
	for i, g := range gs {
		inner[i] = g.g
	}
	u := graph.DisjointUnion(inner)
	// Every node carries its own instance's (Δ, W): parameters are
	// global knowledge within an instance, not across the union, and
	// per-component parameters are what keep each component on exactly
	// its solo schedule (and hence its solo cover).
	nodeParams := make([]sim.Params, u.G.N())
	instParams := make([]sim.Params, len(gs))
	for i, g := range inner {
		p := sim.GraphParams(g)
		instParams[i] = p
		lo, hi := u.Nodes(i)
		for v := lo; v < hi; v++ {
			nodeParams[v] = p
		}
	}
	top := c.compileTopology(u.G.Flat())
	res, err := edgepack.Run(u.G, edgepack.Options{
		Engine: c.engine.internal(), Workers: c.workers,
		Topology: top, Context: ctx, RoundBudget: c.budget,
		Observer: simObserver(c.observer), Pool: b.pool,
		NoWire: c.noWire, Programs: b.progs,
		NodeParams: nodeParams,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*VertexCoverResult, len(gs))
	for i := range gs {
		vlo, vhi := u.Nodes(i)
		elo, ehi := u.Edges(i)
		out[i] = newVCResult(inner[i],
			res.Y[elo:ehi:ehi], res.Cover[vlo:vhi:vhi],
			edgepack.Rounds(instParams[i]), res.Stats)
	}
	return out, nil
}

// VertexCoverBatch runs many independent instances in one pooled
// simulator run — the one-shot form of BatchRunner.VertexCover.
// Results are returned in input order and are bit-identical to solo
// runs of each instance (see BatchRunner).
func VertexCoverBatch(ctx context.Context, gs []*Graph, opts ...Option) ([]*VertexCoverResult, error) {
	b, err := NewBatchRunner(opts...)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	return b.VertexCover(ctx, gs)
}
