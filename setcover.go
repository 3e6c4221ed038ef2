package anoncover

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"anoncover/internal/bipartite"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/sim"
)

// SetCoverInstance is a weighted set-cover instance represented as the
// bipartite graph H = (S ∪ U, A) of paper Section 1.2; the input of
// SetCover.
type SetCoverInstance struct {
	ins *bipartite.Instance
}

// SetCoverBuilder accumulates subsets, elements and memberships.
type SetCoverBuilder struct {
	b *bipartite.Builder
}

// NewSetCover returns a builder for an instance with s subsets and u
// elements (subset weights default 1).
func NewSetCover(s, u int) *SetCoverBuilder {
	return &SetCoverBuilder{b: bipartite.NewBuilder(s, u)}
}

// AddMember declares element u a member of subset s.
func (b *SetCoverBuilder) AddMember(s, u int) *SetCoverBuilder {
	b.b.AddEdge(s, u)
	return b
}

// SetWeight sets subset s's positive weight.
func (b *SetCoverBuilder) SetWeight(s int, w int64) *SetCoverBuilder {
	b.b.SetWeight(s, w)
	return b
}

// Build finalizes the instance.
func (b *SetCoverBuilder) Build() *SetCoverInstance {
	return &SetCoverInstance{ins: b.b.Build()}
}

// Subsets returns |S|.
func (i *SetCoverInstance) Subsets() int { return i.ins.S() }

// Elements returns |U|.
func (i *SetCoverInstance) Elements() int { return i.ins.U() }

// Memberships returns |A|, the number of (subset, element) incidences.
func (i *SetCoverInstance) Memberships() int { return i.ins.M() }

// Weight returns the weight of subset s.
func (i *SetCoverInstance) Weight(s int) int64 { return i.ins.Weight(s) }

// SetWeight replaces subset s's positive weight on a built instance.
// Weight mutations do not invalidate compiled SetCoverSolvers: the next
// run absorbs them into a fresh snapshot over the compiled topology.
func (i *SetCoverInstance) SetWeight(s int, w int64) { i.ins.SetWeight(s, w) }

// Weights returns a copy of the subset weight vector.
func (i *SetCoverInstance) Weights() []int64 { return i.ins.Weights() }

// Fingerprint returns a canonical identifier of the instance's
// structure — side sizes, membership table, port numbering — excluding
// weights; see Graph.Fingerprint for the solver-cache contract.
func (i *SetCoverInstance) Fingerprint() string { return i.ins.Fingerprint() }

// MaxFrequency returns f, the maximum number of subsets an element
// belongs to.
func (i *SetCoverInstance) MaxFrequency() int { return i.ins.MaxF() }

// MaxSubsetSize returns k, the maximum subset cardinality.
func (i *SetCoverInstance) MaxSubsetSize() int { return i.ins.MaxK() }

// MaxWeight returns W.
func (i *SetCoverInstance) MaxWeight() int64 { return i.ins.MaxWeight() }

// IsCover reports whether the marked subsets cover every element.
func (i *SetCoverInstance) IsCover(cover []bool) bool { return i.ins.IsCover(cover) }

// CoverWeight returns the total weight of the marked subsets.
func (i *SetCoverInstance) CoverWeight(cover []bool) int64 { return i.ins.CoverWeight(cover) }

// SetCoverSolver is the compiled set-cover session, the bipartite
// analogue of Solver: CompileSetCover builds the flat topology of the
// incidence graph H and its shard partition once,
// and every SetCover run reuses it.  Safe for concurrent callers; see
// Solver for the sharing contract and the weight-snapshot model
// (UpdateWeights / WithWeights work identically, over subset weights).
type SetCoverSolver struct {
	ins     *SetCoverInstance
	cfg     config
	views   *views
	pool    *sim.Pool
	progs   *fracpack.ProgramPool // recycled node programs
	version uint64

	mu   sync.Mutex // serializes snapshot installs; loads are lock-free
	snap atomic.Pointer[scSnapshot]
}

// scSnapshot is the set-cover analogue of weightSnapshot: one immutable
// subset-weight assignment over the compiled incidence topology.
type scSnapshot struct {
	ins  *bipartite.Instance // weight view sharing the compiled structure
	w    []int64
	srcW uint64 // source instance's WeightVersion absorbed by this snapshot
}

func scSnapshotFromInstance(ins *bipartite.Instance) *scSnapshot {
	w := ins.Weights()
	return &scSnapshot{ins: ins.WeightView(w), w: w, srcW: ins.WeightVersion()}
}

// CompileSetCover validates opts against ins and builds a reusable
// SetCoverSolver.  It returns an error for invalid options, declared
// f/k/W bounds below the actual instance values, or an instance with an
// uncoverable element.
func CompileSetCover(ins *SetCoverInstance, opts ...Option) (*SetCoverSolver, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.f != 0 && c.f < ins.MaxFrequency() {
		return nil, fmt.Errorf("anoncover: WithSetCoverBounds: f=%d below the actual maximum frequency %d",
			c.f, ins.MaxFrequency())
	}
	if c.k != 0 && c.k < ins.MaxSubsetSize() {
		return nil, fmt.Errorf("anoncover: WithSetCoverBounds: k=%d below the actual maximum subset size %d",
			c.k, ins.MaxSubsetSize())
	}
	if c.maxW != 0 && c.maxW < ins.MaxWeight() {
		return nil, fmt.Errorf("anoncover: WithWeightBound(%d) below the actual maximum weight %d",
			c.maxW, ins.MaxWeight())
	}
	for u := 0; u < ins.Elements(); u++ {
		if ins.ins.Deg(ins.ins.ElementNode(u)) == 0 {
			return nil, fmt.Errorf("anoncover: element %d belongs to no subset; the instance has no cover", u)
		}
	}
	s := &SetCoverSolver{
		ins: ins, cfg: c, views: c.compileViews(ins.ins.Flat()), pool: sim.NewPool(),
		progs: &fracpack.ProgramPool{}, version: ins.ins.Version(),
	}
	s.snap.Store(scSnapshotFromInstance(ins.ins))
	return s, nil
}

// UpdateWeights installs a new immutable subset-weight snapshot against
// the compiled incidence topology; see Solver.UpdateWeights for the
// snapshot contract (in-flight runs finish on their snapshot, no
// topology recompile, vector copied and validated).
func (s *SetCoverSolver) UpdateWeights(w []int64) error {
	if err := checkWeights(w, s.ins.Subsets(), s.cfg.maxW, "subset"); err != nil {
		return err
	}
	cp := append([]int64(nil), w...)
	s.mu.Lock()
	s.snap.Store(&scSnapshot{ins: s.ins.ins.WeightView(cp), w: cp, srcW: s.ins.ins.WeightVersion()})
	s.mu.Unlock()
	return nil
}

// Weights returns a copy of the subset weights of the solver's current
// snapshot.
func (s *SetCoverSolver) Weights() []int64 {
	return append([]int64(nil), s.snap.Load().w...)
}

// snapshot resolves the weight snapshot for one run; the logic mirrors
// Solver.snapshot (pinned WithWeights vector, else the current
// snapshot, refreshed when the instance's weights were mutated).
func (s *SetCoverSolver) snapshot(c *config) (*scSnapshot, error) {
	if c.weights != nil {
		if err := checkWeights(c.weights, s.ins.Subsets(), c.maxW, "subset"); err != nil {
			return nil, err
		}
		if snap := s.snap.Load(); weightsEqual(snap.w, c.weights) {
			return snap, nil
		}
		cp := append([]int64(nil), c.weights...)
		return &scSnapshot{ins: s.ins.ins.WeightView(cp), w: cp, srcW: s.ins.ins.WeightVersion()}, nil
	}
	snap := s.snap.Load()
	if snap.srcW == s.ins.ins.WeightVersion() {
		return snap, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap = s.snap.Load()
	if snap.srcW == s.ins.ins.WeightVersion() {
		return snap, nil
	}
	fresh := scSnapshotFromInstance(s.ins.ins)
	if err := checkWeights(fresh.w, s.ins.Subsets(), c.maxW, "subset"); err != nil {
		return nil, err
	}
	s.snap.Store(fresh)
	return fresh, nil
}

// Instance returns the instance the solver was compiled for.
func (s *SetCoverSolver) Instance() *SetCoverInstance { return s.ins }

// Close releases the session's pooled worker goroutines; see
// Solver.Close.
func (s *SetCoverSolver) Close() error {
	s.pool.Close()
	return nil
}

// SetCover runs the Section 4 algorithm on the compiled topology: a
// deterministic f-approximation of minimum-weight set cover in
// O(f²k² + fk·log* W) rounds in the anonymous broadcast model.  The
// context is polled at every round barrier; per-run options extend the
// session defaults.
func (s *SetCoverSolver) SetCover(ctx context.Context, opts ...Option) (*SetCoverResult, error) {
	if v := s.ins.ins.Version(); v != s.version {
		return nil, fmt.Errorf("anoncover: instance structure mutated after CompileSetCover (version %d, compiled at %d); recompile the solver", v, s.version)
	}
	c := s.cfg
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	snap, err := s.snapshot(&c)
	if err != nil {
		return nil, err
	}
	top, workers := s.views.forRun(&c)
	res, err := fracpack.Run(snap.ins, fracpack.Options{
		Engine: c.engine.internal(), Workers: workers, ScrambleSeed: c.scramble,
		F: c.f, K: c.k, W: c.maxW, EarlyExit: c.earlyExit,
		Topology: top, Context: ctx, RoundBudget: c.budget,
		Observer: simObserver(c.observer), Pool: s.pool,
		NoWire: c.noWire, Programs: s.progs,
	})
	if err != nil {
		return nil, err
	}
	out := &SetCoverResult{
		Cover:           res.Cover,
		Packing:         make([]*big.Rat, len(res.Y)),
		Weight:          res.CoverWeight(snap.ins),
		Rounds:          res.Rounds,
		ScheduledRounds: res.ScheduledRounds,
		Messages:        res.Stats.Messages,
		Bytes:           res.Stats.Bytes,
		ins:             snap.ins,
		y:               res.Y,
	}
	for u, v := range res.Y {
		out.Packing[u] = v.Big()
	}
	return out, nil
}

// MaximalFractionalPacking is an alias for SetCover emphasising the
// primal object.
func (s *SetCoverSolver) MaximalFractionalPacking(ctx context.Context, opts ...Option) (*SetCoverResult, error) {
	return s.SetCover(ctx, opts...)
}

// Generators.

// RandomSetCover returns a random instance with s subsets and u elements
// where element frequency is at most f, subset size at most k, and
// weights are uniform in {1..maxW}.  Requires s*k >= u.
func RandomSetCover(s, u, f, k int, maxW, seed int64) *SetCoverInstance {
	return &SetCoverInstance{ins: bipartite.Random(s, u, f, k, maxW, seed)}
}

// SymmetricSetCover returns the paper's Figure 3 lower-bound instance:
// K_{p,p} with a fully symmetric port numbering.  Any deterministic
// anonymous algorithm outputs all p subsets while the optimum is 1.
func SymmetricSetCover(p int) *SetCoverInstance {
	return &SetCoverInstance{ins: bipartite.SymmetricKpp(p)}
}

// CycleSetCover returns the paper's Figure 4 reduction instance from a
// directed n-cycle with parameter p (f = k = p, optimum n/p).
func CycleSetCover(n, p int) *SetCoverInstance {
	return &SetCoverInstance{ins: bipartite.CycleReduction(n, p)}
}

// IncidenceSetCover converts a vertex cover instance into the set cover
// instance of Section 5: subsets are nodes, elements are edges, f = 2,
// k = Δ.
func IncidenceSetCover(g *Graph) *SetCoverInstance {
	return &SetCoverInstance{ins: bipartite.FromGraph(g.g)}
}

// ReadSetCover parses the text format produced by WriteSetCover.
func ReadSetCover(r io.Reader) (*SetCoverInstance, error) {
	ins, err := bipartite.Parse(r)
	if err != nil {
		return nil, err
	}
	return &SetCoverInstance{ins: ins}, nil
}

// WriteSetCover serializes the instance in the text format.
func WriteSetCover(w io.Writer, i *SetCoverInstance) error {
	return bipartite.Write(w, i.ins)
}
