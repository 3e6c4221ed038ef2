package anoncover

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"anoncover/internal/core/bcastvc"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/graph"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// RoundInfo is the per-round progress snapshot streamed to a
// WithObserver callback after each completed round.  Messages and Bytes
// are cumulative through the reported round, whatever the engine or
// worker count.
type RoundInfo struct {
	Round    int   // 1-based round just completed
	Total    int   // rounds in this run's schedule
	Messages int64 // messages delivered through this round
	Bytes    int64 // payload bytes delivered through this round
}

// ErrRoundBudget is returned by a run whose schedule needed more rounds
// than its WithRoundBudget allowed.  The run stopped at the budget
// boundary; no result is produced.
var ErrRoundBudget = sim.ErrRoundBudget

// Solver is a compiled vertex-cover session: Compile builds the flat
// CSR topology, its shard partition (one shard for EngineSequential)
// and a pool of
// reusable execution resources once, and every run on the Solver reuses
// them.  A Solver is safe for concurrent callers — runs check mutable
// state (inboxes, halo buffers, worker pools) out of internal pools and
// share only the immutable compiled topology.
//
// The graph's structure must not be mutated (ShufflePorts) after
// Compile; runs on a structurally stale Solver return an error rather
// than silently using the old topology.  Weights are snapshot state,
// not structure: UpdateWeights installs a new immutable weight snapshot
// against the same compiled topology, weight mutations of the graph
// itself (SetWeight, Weigh*) are absorbed into a fresh snapshot on the
// next run, and WithWeights pins a single run to an explicit weight
// vector.  In-flight runs always finish on the snapshot they started
// with.
type Solver struct {
	g       *Graph
	cfg     config
	views   *views // the compiled execution views runs reuse
	pool    *sim.Pool
	progs   *edgepack.ProgramPool // recycled VertexCover node programs
	bprogs  *bcastvc.ProgramPool  // recycled VertexCoverBroadcast node programs
	version uint64

	mu   sync.Mutex // serializes snapshot installs; loads are lock-free
	snap atomic.Pointer[weightSnapshot]
}

// weightSnapshot is one immutable weight assignment over a compiled
// topology.  Runs resolve a snapshot once at their start and use its
// view graph throughout — environment construction, result assembly,
// Verify — so a concurrent UpdateWeights never tears a run.
type weightSnapshot struct {
	g *graph.G // weight view sharing the compiled structure
	w []int64  // the weights the view carries (never mutated)
	// srcW is the source graph's WeightVersion this snapshot absorbed;
	// a run whose graph has moved past it refreshes the snapshot from
	// the graph's current weights instead of erroring.
	srcW uint64
}

// snapshotFromGraph copies g's current weights into a fresh snapshot.
func snapshotFromGraph(g *graph.G) *weightSnapshot {
	w := g.Weights()
	return &weightSnapshot{g: g.WeightView(w), w: w, srcW: g.WeightVersion()}
}

// checkWeights validates an explicit weight vector against the solver's
// shape and declared bound.
func checkWeights(w []int64, n int, maxW int64, what string) error {
	if len(w) != n {
		return fmt.Errorf("anoncover: %d weights for %d %ss", len(w), n, what)
	}
	for i, x := range w {
		if x <= 0 {
			return fmt.Errorf("anoncover: non-positive weight %d at %s %d", x, what, i)
		}
		if maxW != 0 && x > maxW {
			return fmt.Errorf("anoncover: weight %d at %s %d above the declared WithWeightBound(%d)", x, what, i, maxW)
		}
	}
	return nil
}

// mustCompile unwraps Compile for the panicking one-shot wrappers.
// Errors already carry their package prefix.
func mustCompile(s *Solver, err error) *Solver {
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Compile validates opts against g and builds a reusable Solver: the
// flat CSR topology, its degree-balanced shard partition (one shard
// for EngineSequential), and the session's execution pools.  Options
// given here become the session defaults; each run may extend or
// override them.
func Compile(g *Graph, opts ...Option) (*Solver, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.delta != 0 && c.delta < g.MaxDegree() {
		return nil, fmt.Errorf("anoncover: WithDegreeBound(%d) below the actual maximum degree %d",
			c.delta, g.MaxDegree())
	}
	if c.maxW != 0 && c.maxW < g.MaxWeight() {
		return nil, fmt.Errorf("anoncover: WithWeightBound(%d) below the actual maximum weight %d",
			c.maxW, g.MaxWeight())
	}
	s := &Solver{
		g: g, cfg: c, views: c.compileViews(g.g.Flat()), pool: sim.NewPool(),
		progs: &edgepack.ProgramPool{}, bprogs: &bcastvc.ProgramPool{},
		version: g.g.Version(),
	}
	s.snap.Store(snapshotFromGraph(g.g))
	return s, nil
}

// UpdateWeights installs a new immutable weight snapshot: subsequent
// runs use exactly these weights against the compiled topology — no
// recompile of the CSR view, shard partition, wire tables or pools —
// while in-flight runs finish on the snapshot they started with.  The
// vector is copied; it must have one positive weight per node and
// respect a declared WithWeightBound.  Any pending weight mutations of
// the underlying graph are superseded by the explicit snapshot.
func (s *Solver) UpdateWeights(w []int64) error {
	if err := checkWeights(w, s.g.N(), s.cfg.maxW, "node"); err != nil {
		return err
	}
	cp := append([]int64(nil), w...)
	s.mu.Lock()
	s.snap.Store(&weightSnapshot{g: s.g.g.WeightView(cp), w: cp, srcW: s.g.g.WeightVersion()})
	s.mu.Unlock()
	return nil
}

// Weights returns a copy of the weight vector of the solver's current
// snapshot — what a run started now would use.
func (s *Solver) Weights() []int64 {
	return append([]int64(nil), s.snap.Load().w...)
}

// snapshot resolves the weight snapshot for one run.  With pinned
// per-run weights (WithWeights) it reuses the current snapshot when the
// vectors match and otherwise builds a run-local view without
// installing it; with no pin it returns the current snapshot, first
// refreshing it when the graph's weights have been mutated since it was
// taken (weight mutation is served, not rejected — only structural
// mutation invalidates a Solver).
func (s *Solver) snapshot(c *config) (*weightSnapshot, error) {
	if c.weights != nil {
		if err := checkWeights(c.weights, s.g.N(), c.maxW, "node"); err != nil {
			return nil, err
		}
		if snap := s.snap.Load(); weightsEqual(snap.w, c.weights) {
			return snap, nil
		}
		cp := append([]int64(nil), c.weights...)
		return &weightSnapshot{g: s.g.g.WeightView(cp), w: cp, srcW: s.g.g.WeightVersion()}, nil
	}
	snap := s.snap.Load()
	if snap.srcW == s.g.g.WeightVersion() {
		return snap, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap = s.snap.Load()
	if snap.srcW == s.g.g.WeightVersion() {
		return snap, nil
	}
	fresh := snapshotFromGraph(s.g.g)
	if err := checkWeights(fresh.w, s.g.N(), c.maxW, "node"); err != nil {
		return nil, err
	}
	s.snap.Store(fresh)
	return fresh, nil
}

// weightsEqual reports whether two weight vectors are identical.
func weightsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// runConfig layers per-run options over the session defaults and
// re-validates, and rejects runs on a Solver whose graph has been
// structurally mutated since Compile (weight mutations do not
// invalidate a Solver; they refresh its snapshot — see snapshot).
func (s *Solver) runConfig(opts []Option) (config, error) {
	if v := s.g.g.Version(); v != s.version {
		return config{}, fmt.Errorf("anoncover: graph structure mutated after Compile (version %d, compiled at %d); recompile the solver", v, s.version)
	}
	c := s.cfg
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(); err != nil {
		return config{}, err
	}
	return c, nil
}

// Graph returns the graph the Solver was compiled for.
func (s *Solver) Graph() *Graph { return s.g }

// Close releases the session's pooled worker goroutines.  It is
// optional but recommended for long-lived processes that compile many
// solvers; runs issued after Close still work, paying the per-run
// setup cost again.
func (s *Solver) Close() error {
	s.pool.Close()
	return nil
}

// compileTopology builds the execution view a session's runs share:
// the flat topology partitioned into the engine's shard count — one
// shard for EngineSequential — so no run, and no EarlyExit chunk of a
// run, flattens or partitions again.  It pins c.workers to the clamped
// shard count, because a run whose count differs from the view's
// re-partitions.  (Sharding is an execution detail, so a per-run engine
// or WithWorkers override stays legal; a session builds the view it
// needs once, see views.)  CSP runs read the view as a plain port
// structure.
func (c *config) compileTopology(flat *graph.FlatTopology) *shard.Topology {
	k := 1
	if c.engine == EngineSharded {
		k = c.workers
		if k <= 0 {
			k = runtime.GOMAXPROCS(0)
		}
	}
	st := shard.BuildK(flat, k)
	if c.engine == EngineSharded {
		c.workers = st.K()
	}
	return st
}

// maxViews bounds a session's view cache.  Shard counts come from the
// engine and WithWorkers, so a session sees one or two; a caller cycling
// through ever new worker counts gets uncached views past the bound, as
// every run did before views were cached.
const maxViews = 8

// views is a session's execution views, one per shard count, built
// on first use.  A run whose engine or worker count differs from the
// session's — a per-run EngineSequential override on a Sharded
// session, say — then partitions once per session instead of once per
// run, and keeps reusing the run arena shaped for its view.
type views struct {
	flat     *graph.FlatTopology
	compiled *shard.Topology // the view for the session's own engine

	mu  sync.Mutex
	byK map[int]*shard.Topology // keyed by the requested shard count
}

// compileViews builds a session's view cache around the compiled view.
func (c *config) compileViews(flat *graph.FlatTopology) *views {
	st := c.compileTopology(flat)
	k := 1
	if c.engine == EngineSharded {
		k = c.workers
	}
	return &views{flat: flat, compiled: st, byK: map[int]*shard.Topology{k: st}}
}

// forRun returns the view a run under c executes on and the worker
// count that makes the kernel use it as is: the kernel re-partitions a
// view whose shard count differs from the run's, and the partitioner
// clamps counts on tiny topologies.  Engines outside the kernel (CSP,
// Distributed) read the compiled view as a plain port structure.
func (v *views) forRun(c *config) (*shard.Topology, int) {
	var k int
	switch c.engine {
	case EngineSequential:
		k = 1
	case EngineSharded:
		k = c.workers
		if k <= 0 {
			k = runtime.GOMAXPROCS(0)
		}
	default:
		return v.compiled, c.workers
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	st, ok := v.byK[k]
	if !ok {
		st = shard.BuildK(v.flat, k)
		if len(v.byK) < maxViews {
			v.byK[k] = st
		}
	}
	return st, st.K()
}

// simObserver adapts a public observer to the simulator's callback.
func simObserver(fn func(RoundInfo)) func(sim.RoundInfo) {
	if fn == nil {
		return nil
	}
	return func(ri sim.RoundInfo) { fn(RoundInfo(ri)) }
}

// VertexCover runs the Section 3 algorithm (port-numbering model) on
// the compiled topology.  The context is polled at every round barrier;
// per-run options extend the session defaults.
func (s *Solver) VertexCover(ctx context.Context, opts ...Option) (*VertexCoverResult, error) {
	c, err := s.runConfig(opts)
	if err != nil {
		return nil, err
	}
	snap, err := s.snapshot(&c)
	if err != nil {
		return nil, err
	}
	top, workers := s.views.forRun(&c)
	res, err := edgepack.Run(snap.g, edgepack.Options{
		Engine: c.engine.internal(), Workers: workers, Delta: c.delta, W: c.maxW,
		Topology: top, Context: ctx, RoundBudget: c.budget,
		Observer: simObserver(c.observer), Pool: s.pool,
		NoWire: c.noWire, Programs: s.progs,
	})
	if err != nil {
		return nil, err
	}
	return newVCResult(snap.g, res.Y, res.Cover, res.Rounds, res.Stats), nil
}

// MaximalEdgePacking is an alias for VertexCover emphasising the primal
// object.
func (s *Solver) MaximalEdgePacking(ctx context.Context, opts ...Option) (*VertexCoverResult, error) {
	return s.VertexCover(ctx, opts...)
}

// VertexCoverBroadcast runs the Section 5 algorithm (broadcast model)
// on the compiled topology, with the same guarantee as VertexCover at
// O(Δ² + Δ·log* W) rounds.  WithDegreeBound and WithWeightBound inflate
// the schedule exactly as in the port-numbering model.
func (s *Solver) VertexCoverBroadcast(ctx context.Context, opts ...Option) (*VertexCoverResult, error) {
	c, err := s.runConfig(opts)
	if err != nil {
		return nil, err
	}
	snap, err := s.snapshot(&c)
	if err != nil {
		return nil, err
	}
	top, workers := s.views.forRun(&c)
	res, err := bcastvc.Run(snap.g, bcastvc.Options{
		Engine: c.engine.internal(), Workers: workers, ScrambleSeed: c.scramble,
		Delta: c.delta, W: c.maxW,
		Topology: top, Context: ctx, RoundBudget: c.budget,
		Observer: simObserver(c.observer), Pool: s.pool,
		NoWire: c.noWire, Programs: s.bprogs,
	})
	if err != nil {
		return nil, err
	}
	return newVCResult(snap.g, res.Y, res.Cover, res.Rounds, res.Stats), nil
}
