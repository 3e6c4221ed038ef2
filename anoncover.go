// Package anoncover implements the distributed approximation algorithms
// of Åstrand & Suomela, "Fast Distributed Approximation Algorithms for
// Vertex Cover and Set Cover in Anonymous Networks" (SPAA 2010), together
// with the synchronous anonymous-network simulator they run on.
//
// Three deterministic algorithms are provided, none of which needs node
// identifiers or knowledge of the network size:
//
//   - VertexCover: a maximal edge packing and 2-approximate minimum-weight
//     vertex cover in O(Δ + log* W) rounds in the port-numbering model
//     (paper Section 3);
//   - SetCover: a maximal fractional packing and f-approximate
//     minimum-weight set cover in O(f²k² + fk·log* W) rounds in the
//     broadcast model (Section 4);
//   - VertexCoverBroadcast: the vertex cover algorithm in the strictly
//     weaker broadcast model via full-history simulation, in
//     O(Δ² + Δ·log* W) rounds (Section 5).
//
// Quick start (one-shot):
//
//	g := anoncover.RandomGraph(1000, 2500, 6, 42)
//	g.WeighRandom(100, 7)
//	res := anoncover.VertexCover(g)
//	fmt.Println(res.Weight, res.Rounds)
//
// # Solver sessions
//
// The algorithms themselves are cheap per round; what a service pays
// for on every one-shot call is the setup around them — building the
// flat CSR topology, partitioning for the sharded engine, spinning a
// worker pool.  Compile separates the two: it performs all of that
// once and returns a Solver whose runs reuse it, so repeated queries
// over the same graph pay only for their rounds.
//
//	s, err := anoncover.Compile(g, anoncover.WithEngine(anoncover.EngineSharded))
//	if err != nil { ... }
//	defer s.Close()
//	for i := 0; i < 1000; i++ {
//		res, err := s.VertexCover(ctx)
//		...
//	}
//
// A Solver is safe for concurrent callers: per-run state (inboxes,
// halo buffers, worker pools) is checked out of internal pools, while
// the compiled topology is shared read-only.  Runs accept a context
// (cancellation and deadlines are honoured at the round barrier),
// WithRoundBudget to cap the rounds a request may consume, and
// WithObserver to stream per-round progress.  CompileSetCover is the
// bipartite analogue for SetCover.  The one-shot functions above
// remain as thin wrappers over a throwaway Solver.
//
// All algorithms run on one of three interchangeable engines — a
// sequential reference and a sharded engine, which are one round
// kernel run on one shard or on k degree-balanced shards with halo
// message exchange on the cut edges (internal/shard), and a
// goroutine-per-node CSP reference — that produce bit-identical
// results: the execution strategy is never observable, only the
// synchronous port-numbering semantics of the paper.
package anoncover

import (
	"context"
	"fmt"
	"math/big"

	"anoncover/internal/bipartite"
	"anoncover/internal/check"
	"anoncover/internal/core/bcastvc"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/exact"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// Engine selects how node programs are executed.  All engines produce
// identical results.
type Engine int

// The values are fixed so that stored or logged engine numbers keep
// their meaning; 1 belonged to the retired worker-pool engine.
const (
	// EngineSequential runs the round kernel with one shard stepped by
	// one worker, nodes in index order: the reference engine.
	EngineSequential Engine = 0
	// EngineCSP runs one goroutine per node with channel-per-edge
	// communication and no global barrier.  It is a semantic reference
	// kept for the equivalence suite, not a throughput engine.
	EngineCSP Engine = 2
	// EngineSharded runs the same round kernel on degree-balanced
	// shards, one pinned worker per shard, each stepping its nodes
	// against a compact local inbox; messages on cut edges cross
	// through double-buffered halo buffers at the phase barrier.
	// WithWorkers sets the shard count.  Sharding is an execution
	// detail: results are bit-identical to EngineSequential.
	EngineSharded Engine = 3
	// EngineParallel selects EngineSharded.
	//
	// Deprecated: the worker-pool engine it named was folded into the
	// sharded kernel; use EngineSharded with WithWorkers.
	EngineParallel = EngineSharded
)

// String names the engine as it appears in request parameters, bench
// rows and telemetry labels.
func (e Engine) String() string {
	switch e {
	case EngineSequential:
		return "sequential"
	case EngineCSP:
		return "csp"
	case EngineSharded:
		return "sharded"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine maps an engine name — "sequential", "sharded" or "csp",
// as String prints them — to its Engine.  "parallel" is accepted for
// the deprecated EngineParallel and yields EngineSharded.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "sequential":
		return EngineSequential, nil
	case "sharded", "parallel":
		return EngineSharded, nil
	case "csp":
		return EngineCSP, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want sequential, sharded or csp)", name)
}

func (e Engine) internal() sim.Engine {
	switch e {
	case EngineCSP:
		return sim.CSP
	case EngineSharded:
		return sim.Sharded
	}
	return sim.Sequential
}

type config struct {
	engine    Engine
	workers   int
	scramble  int64
	delta     int
	f, k      int
	maxW      int64
	budget    int
	observer  func(RoundInfo)
	earlyExit bool
	noWire    bool
	weights   []int64
}

// validate rejects option combinations that cannot be served; it is the
// single gate both Compile and every run pass through, so misuse is an
// error rather than silent misbehaviour.
func (c *config) validate() error {
	switch c.engine {
	case EngineSequential, EngineCSP, EngineSharded:
	default:
		return fmt.Errorf("anoncover: unknown engine %d", int(c.engine))
	}
	if c.workers < 0 {
		return fmt.Errorf("anoncover: WithWorkers(%d): worker count must be >= 0", c.workers)
	}
	if c.delta < 0 {
		return fmt.Errorf("anoncover: WithDegreeBound(%d): bound must be >= 0", c.delta)
	}
	if c.maxW < 0 {
		return fmt.Errorf("anoncover: WithWeightBound(%d): bound must be >= 0", c.maxW)
	}
	if c.f < 0 || c.k < 0 {
		return fmt.Errorf("anoncover: WithSetCoverBounds(%d, %d): bounds must be >= 0", c.f, c.k)
	}
	if c.budget < 0 {
		return fmt.Errorf("anoncover: WithRoundBudget(%d): budget must be >= 0", c.budget)
	}
	return nil
}

// Option configures an algorithm run.
type Option func(*config)

// WithEngine selects the execution engine.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithWorkers sets the shard count (and so the worker count) for
// EngineSharded.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithRoundBudget caps the number of synchronous rounds a run may
// execute.  A run whose schedule needs more stops at the budget
// boundary and returns ErrRoundBudget — the distributed analogue of a
// request timeout, enforced at the round barrier.
func WithRoundBudget(n int) Option { return func(c *config) { c.budget = n } }

// WithObserver streams per-round progress: fn is called after every
// completed round, on the goroutine driving the run, with cumulative
// message statistics.  Supported by the Sequential and Sharded
// engines; a run on EngineCSP (which has no round barrier)
// returns an error if an observer is set.
func WithObserver(fn func(RoundInfo)) Option { return func(c *config) { c.observer = fn } }

// WithEarlyExit lets SetCover stop at an iteration boundary once the
// packing is already maximal.  This is a simulator-side optimisation:
// real anonymous nodes cannot detect global saturation, so the
// result's ScheduledRounds stays the honest deterministic cost while
// Rounds reports what the simulator actually executed.
func WithEarlyExit() Option { return func(c *config) { c.earlyExit = true } }

// WithScrambleSeed shuffles broadcast delivery order deterministically;
// correct broadcast algorithms give identical results for every seed.
func WithScrambleSeed(s int64) Option { return func(c *config) { c.scramble = s } }

// WithDegreeBound declares the globally known degree bound Δ (paper
// Section 1.4: Δ may be an intrinsic hardware constraint such as the
// number of physical ports, not the exact graph maximum).  It must be at
// least the actual maximum degree.
func WithDegreeBound(delta int) Option { return func(c *config) { c.delta = delta } }

// WithWeightBound declares the globally known weight bound W, e.g. the
// register width used to store weights.  It must be at least the actual
// maximum weight.
func WithWeightBound(w int64) Option { return func(c *config) { c.maxW = w } }

// WithSetCoverBounds declares the globally known bounds f (maximum
// element frequency) and k (maximum subset size) for SetCover.
func WithSetCoverBounds(f, k int) Option {
	return func(c *config) { c.f, c.k = f, k }
}

// WithWeights pins a run to exactly this weight vector — one positive
// weight per node (per subset for SetCover) — regardless of the
// solver's current snapshot or any concurrent UpdateWeights.  When the
// vector matches the current snapshot the run reuses it; otherwise the
// run gets a private snapshot over the same compiled topology, with no
// recompile.  The slice is read during run setup only and must not be
// mutated until the run call returns.  It is the serving layer's
// request-weights primitive; Solver.UpdateWeights is the session-level
// way to install a snapshot for all subsequent runs.
func WithWeights(w []int64) Option { return func(c *config) { c.weights = w } }

// WithoutWirePath forces the simulator's boxed message-delivery path
// instead of the default unboxed wire path (fixed-width word lanes for
// the port model).  Broadcast-model runs (set cover, broadcast vertex
// cover) have one delivery path and ignore it.  Results are
// bit-identical on both paths; the option exists for equivalence
// testing and for ablation benchmarks that want to measure the wire
// path's effect.
func WithoutWirePath() Option { return func(c *config) { c.noWire = true } }

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// VertexCoverResult holds a maximal edge packing and the induced
// 2-approximate minimum-weight vertex cover.
type VertexCoverResult struct {
	// Cover marks the saturated nodes, a vertex cover of weight at most
	// twice the optimum.
	Cover []bool
	// Packing holds the edge packing value y(e) per edge, in edge order.
	Packing []*big.Rat
	// Weight is the total weight of Cover.
	Weight int64
	// Rounds is the number of synchronous communication rounds used.
	Rounds int
	// Messages and Bytes count delivered messages and payload bytes.
	Messages int64
	Bytes    int64

	g *graph.G
	y []rational.Rat
}

// Verify re-checks every paper invariant node by node: the packing is
// feasible and maximal, and Cover is exactly the saturated nodes.
// Those local facts imply the duality certificate w(C) <= 2·Σy(e), so
// the global sum is never formed.  It returns nil on success.
func (r *VertexCoverResult) Verify() error {
	return check.VCResult(r.g, r.y, r.Cover)
}

func newVCResult(g *graph.G, y []rational.Rat, cover []bool, rounds int, st sim.Stats) *VertexCoverResult {
	res := &VertexCoverResult{
		Cover:    cover,
		Packing:  make([]*big.Rat, len(y)),
		Weight:   check.CoverWeight(g, cover),
		Rounds:   rounds,
		Messages: st.Messages,
		Bytes:    st.Bytes,
		g:        g,
		y:        y,
	}
	for e, v := range y {
		res.Packing[e] = v.Big()
	}
	return res
}

// VertexCover runs the Section 3 algorithm on g: a deterministic
// 2-approximation of minimum-weight vertex cover in O(Δ + log* W)
// synchronous rounds in the anonymous port-numbering model.
//
// It is a thin wrapper over a throwaway Solver and panics on invalid
// options; services issuing many runs should Compile once and use the
// session API, which also reports errors instead of panicking.
func VertexCover(g *Graph, opts ...Option) *VertexCoverResult {
	s := mustCompile(Compile(g, opts...))
	defer s.Close()
	res, err := s.VertexCover(context.Background())
	if err != nil {
		panic(err.Error())
	}
	return res
}

// MaximalEdgePacking is an alias for VertexCover emphasising the primal
// object: the returned Packing is a maximal edge packing of (g, w).
func MaximalEdgePacking(g *Graph, opts ...Option) *VertexCoverResult {
	return VertexCover(g, opts...)
}

// VertexCoverBroadcast runs the Section 5 algorithm: the same guarantee
// as VertexCover but in the strictly weaker broadcast model, paying
// O(Δ² + Δ·log* W) rounds and linearly growing messages.
// WithDegreeBound and WithWeightBound inflate the schedule exactly as
// they do for VertexCover (the declared Δ sizes the simulated set-cover
// instance).
//
// Like VertexCover, it is a wrapper over a throwaway Solver and panics
// on invalid options; prefer Compile + Solver.VertexCoverBroadcast for
// serving.
func VertexCoverBroadcast(g *Graph, opts ...Option) *VertexCoverResult {
	s := mustCompile(Compile(g, opts...))
	defer s.Close()
	res, err := s.VertexCoverBroadcast(context.Background())
	if err != nil {
		panic(err.Error())
	}
	return res
}

// SetCoverResult holds a maximal fractional packing and the induced
// f-approximate minimum-weight set cover.
type SetCoverResult struct {
	// Cover marks the chosen (saturated) subsets.
	Cover []bool
	// Packing holds y(u) per element.
	Packing []*big.Rat
	// Weight is the total weight of Cover.
	Weight int64
	// Rounds is the number of synchronous rounds executed;
	// ScheduledRounds the deterministic worst-case schedule.
	Rounds          int
	ScheduledRounds int
	Messages        int64
	Bytes           int64

	ins *bipartite.Instance
	y   []rational.Rat
}

// Verify re-checks the paper invariants node by node: the packing is
// feasible and maximal, and Cover is exactly the saturated subsets.
// Those local facts imply the f-approximation certificate
// w(C) <= f·Σy(u), so the global sum is never formed.
func (r *SetCoverResult) Verify() error {
	return check.SCResult(r.ins, r.y, r.Cover, r.ins.MaxF())
}

// SetCover runs the Section 4 algorithm on ins: a deterministic
// f-approximation of minimum-weight set cover in O(f²k² + fk·log* W)
// rounds in the anonymous broadcast model.
//
// It is a thin wrapper over a throwaway SetCoverSolver and panics on
// invalid options or an uncoverable instance; prefer CompileSetCover
// for serving.
func SetCover(ins *SetCoverInstance, opts ...Option) *SetCoverResult {
	s, err := CompileSetCover(ins, opts...)
	if err != nil {
		panic(err.Error())
	}
	defer s.Close()
	res, err := s.SetCover(context.Background())
	if err != nil {
		panic(err.Error())
	}
	return res
}

// MaximalFractionalPacking is an alias for SetCover emphasising the
// primal object.
func MaximalFractionalPacking(ins *SetCoverInstance, opts ...Option) *SetCoverResult {
	return SetCover(ins, opts...)
}

// PredictedVertexCoverRounds returns the deterministic round schedule of
// VertexCover for maximum degree delta and maximum weight maxWeight —
// the O(Δ + log* W) bound made concrete.
func PredictedVertexCoverRounds(delta int, maxWeight int64) int {
	return edgepack.Rounds(sim.Params{Delta: delta, W: maxWeight})
}

// PredictedSetCoverRounds returns the deterministic round schedule of
// SetCover for maximum frequency f, maximum subset size k, and maximum
// weight maxWeight — the O(f²k² + fk·log* W) bound made concrete.
func PredictedSetCoverRounds(f, k int, maxWeight int64) int {
	return fracpack.Rounds(sim.Params{F: f, K: k, W: maxWeight})
}

// PredictedBroadcastVCRounds returns the round schedule of
// VertexCoverBroadcast — the O(Δ² + Δ·log* W) bound made concrete.
func PredictedBroadcastVCRounds(delta int, maxWeight int64) int {
	return bcastvc.Rounds(sim.Params{Delta: delta, W: maxWeight})
}

// OptimalVertexCover solves minimum-weight vertex cover exactly (branch
// and bound; intended for small and medium instances).
func OptimalVertexCover(g *Graph) (cover []bool, weight int64) {
	return exact.VertexCover(g.g)
}

// OptimalSetCover solves minimum-weight set cover exactly.
func OptimalSetCover(ins *SetCoverInstance) (cover []bool, weight int64) {
	return exact.SetCover(ins.ins)
}
