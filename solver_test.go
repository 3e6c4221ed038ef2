package anoncover

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// mustSameVC asserts two vertex cover results are bit-identical in
// every engine-independent field.
func mustSameVC(t *testing.T, what string, ref, got *VertexCoverResult) {
	t.Helper()
	if got.Weight != ref.Weight || got.Rounds != ref.Rounds ||
		got.Messages != ref.Messages || got.Bytes != ref.Bytes {
		t.Fatalf("%s: scalar fields diverge: %+v vs %+v", what,
			[4]int64{got.Weight, int64(got.Rounds), got.Messages, got.Bytes},
			[4]int64{ref.Weight, int64(ref.Rounds), ref.Messages, ref.Bytes})
	}
	for v := range ref.Cover {
		if got.Cover[v] != ref.Cover[v] {
			t.Fatalf("%s: cover diverges at node %d", what, v)
		}
	}
	for e := range ref.Packing {
		if got.Packing[e].Cmp(ref.Packing[e]) != 0 {
			t.Fatalf("%s: packing diverges at edge %d", what, e)
		}
	}
}

func mustSameSC(t *testing.T, what string, ref, got *SetCoverResult) {
	t.Helper()
	if got.Weight != ref.Weight || got.Rounds != ref.Rounds ||
		got.ScheduledRounds != ref.ScheduledRounds ||
		got.Messages != ref.Messages || got.Bytes != ref.Bytes {
		t.Fatalf("%s: scalar fields diverge", what)
	}
	for s := range ref.Cover {
		if got.Cover[s] != ref.Cover[s] {
			t.Fatalf("%s: cover diverges at subset %d", what, s)
		}
	}
	for u := range ref.Packing {
		if got.Packing[u].Cmp(ref.Packing[u]) != 0 {
			t.Fatalf("%s: packing diverges at element %d", what, u)
		}
	}
}

// solverEngineVariants are the engine configurations every compiled
// solver is exercised under; EngineSharded at two shard counts is the
// configuration CI's solver-path equivalence step exists for.
func solverEngineVariants() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"sequential", []Option{WithEngine(EngineSequential)}},
		{"sequential-boxed", []Option{WithEngine(EngineSequential), WithoutWirePath()}},
		// The deprecated EngineParallel alias must keep compiling and
		// running, as the sharded kernel.
		{"parallel-2", []Option{WithEngine(EngineParallel), WithWorkers(2)}},
		{"sharded-2", []Option{WithEngine(EngineSharded), WithWorkers(2)}},
		{"sharded-4", []Option{WithEngine(EngineSharded), WithWorkers(4)}},
		{"sharded-4-boxed", []Option{WithEngine(EngineSharded), WithWorkers(4), WithoutWirePath()}},
		{"csp", []Option{WithEngine(EngineCSP)}},
	}
}

// TestEquivSolverVertexCover: one compiled Solver serves repeated
// VertexCover runs on every engine, bit-identical to the one-shot API.
func TestEquivSolverVertexCover(t *testing.T) {
	g := RandomGraph(60, 120, 6, 31)
	g.WeighRandom(25, 32)
	ref := VertexCover(g)
	s, err := Compile(g, WithEngine(EngineSharded), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ev := range solverEngineVariants() {
		t.Run(ev.name, func(t *testing.T) {
			for rep := 0; rep < 2; rep++ {
				got, err := s.VertexCover(context.Background(), ev.opts...)
				if err != nil {
					t.Fatal(err)
				}
				mustSameVC(t, ev.name, ref, got)
				if err := got.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestEquivSolverVertexCoverBroadcast: the broadcast-model algorithm
// through a shared Solver, across engines and scramble seeds.
func TestEquivSolverVertexCoverBroadcast(t *testing.T) {
	g := RandomGraph(14, 18, 4, 33)
	g.WeighRandom(6, 34)
	ref := VertexCoverBroadcast(g)
	s, err := Compile(g, WithEngine(EngineSharded), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ev := range solverEngineVariants() {
		t.Run(ev.name, func(t *testing.T) {
			got, err := s.VertexCoverBroadcast(context.Background(), append(ev.opts, WithScrambleSeed(42))...)
			if err != nil {
				t.Fatal(err)
			}
			mustSameVC(t, ev.name, ref, got)
		})
	}
}

// TestEquivSolverSetCover: the set-cover algorithm through a shared
// compiled SetCoverSolver, across engines.
func TestEquivSolverSetCover(t *testing.T) {
	ins := RandomSetCover(10, 24, 3, 6, 12, 35)
	ref := SetCover(ins)
	s, err := CompileSetCover(ins, WithEngine(EngineSharded), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ev := range solverEngineVariants() {
		t.Run(ev.name, func(t *testing.T) {
			for rep := 0; rep < 2; rep++ {
				got, err := s.SetCover(context.Background(), ev.opts...)
				if err != nil {
					t.Fatal(err)
				}
				mustSameSC(t, ev.name, ref, got)
			}
		})
	}
}

// TestEquivSolverConcurrent: a shared Solver must be race-safe — many
// goroutines issuing runs concurrently all get the reference result.
// CI runs this under -race.
func TestEquivSolverConcurrent(t *testing.T) {
	g := RandomGraph(50, 100, 5, 36)
	g.WeighRandom(20, 37)
	ref := VertexCover(g)
	s, err := Compile(g, WithEngine(EngineSharded), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	variants := solverEngineVariants()
	var wg sync.WaitGroup
	errc := make(chan error, 24)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				ev := variants[(i+rep)%len(variants)]
				got, err := s.VertexCover(context.Background(), ev.opts...)
				if err != nil {
					errc <- err
					return
				}
				if got.Weight != ref.Weight {
					errc <- errors.New("concurrent run diverged from reference")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestCompileOptionValidation(t *testing.T) {
	g := RandomGraph(20, 40, 5, 38)
	g.WeighRandom(9, 39)
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative workers", []Option{WithWorkers(-1)}},
		{"unknown engine", []Option{WithEngine(Engine(42))}},
		{"degree bound below actual", []Option{WithDegreeBound(1)}},
		{"weight bound below actual", []Option{WithWeightBound(1)}},
		{"negative budget", []Option{WithRoundBudget(-1)}},
	}
	for _, c := range cases {
		if _, err := Compile(g, c.opts...); err == nil {
			t.Errorf("Compile(%s): no error", c.name)
		}
	}
	ins := RandomSetCover(8, 16, 3, 5, 6, 40)
	scCases := []struct {
		name string
		opts []Option
	}{
		{"f below actual", []Option{WithSetCoverBounds(1, 8)}},
		{"k below actual", []Option{WithSetCoverBounds(4, 1)}},
		{"negative workers", []Option{WithWorkers(-2)}},
		{"unknown engine", []Option{WithEngine(Engine(-1))}},
	}
	for _, c := range scCases {
		if _, err := CompileSetCover(ins, c.opts...); err == nil {
			t.Errorf("CompileSetCover(%s): no error", c.name)
		}
	}
	// Run-level options are re-validated per run.
	s, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.VertexCover(context.Background(), WithWorkers(-3)); err == nil {
		t.Error("run with negative workers: no error")
	}
	if _, err := s.VertexCover(context.Background(), WithEngine(Engine(99))); err == nil {
		t.Error("run with unknown engine: no error")
	}
}

func TestSolverStaleAfterMutation(t *testing.T) {
	g := RandomGraph(20, 40, 5, 41)
	s, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.VertexCover(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Weight-only mutation no longer invalidates the solver: the next
	// run absorbs the new weights into a fresh snapshot and matches a
	// from-scratch run bit for bit.
	g.WeighRandom(9, 42)
	got, err := s.VertexCover(context.Background())
	if err != nil {
		t.Fatalf("run after weight mutation: %v", err)
	}
	fresh := VertexCover(RandomGraphWeighed(t))
	if got.Weight != fresh.Weight || !sameBools(got.Cover, fresh.Cover) {
		t.Fatal("post-mutation run differs from a fresh compile on the same weights")
	}
	// Structural mutation still errors.
	g.ShufflePorts(7)
	if _, err := s.VertexCover(context.Background()); err == nil {
		t.Fatal("run on a structurally mutated graph: no error")
	}
	if _, err := s.SelfStabVertexCover(); err == nil {
		t.Fatal("self-stab system from a stale solver: no error")
	}
}

// RandomGraphWeighed rebuilds the exact graph TestSolverStaleAfterMutation
// mutated, for the from-scratch comparison.
func RandomGraphWeighed(t *testing.T) *Graph {
	t.Helper()
	g := RandomGraph(20, 40, 5, 41)
	g.WeighRandom(9, 42)
	return g
}

func sameBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolverSelfStab: the session's self-stabilising transformation
// honours the compiled Δ/W bounds (the replay schedule follows them)
// and still stabilises to a verified result.
func TestSolverSelfStab(t *testing.T) {
	g := RandomGraph(30, 60, 5, 49)
	g.WeighRandom(9, 50)
	s, err := Compile(g, WithDegreeBound(8), WithWeightBound(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sys, err := s.SelfStabVertexCover()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rounds() != PredictedVertexCoverRounds(8, 1<<20) {
		t.Fatalf("self-stab schedule %d, want the declared-bounds schedule %d",
			sys.Rounds(), PredictedVertexCoverRounds(8, 1<<20))
	}
	if _, ok := sys.Stabilise(sys.Rounds() + 1); !ok {
		t.Fatal("did not stabilise within T+1 steps")
	}
}

func TestSolverRoundBudget(t *testing.T) {
	g := RandomGraph(30, 60, 5, 43)
	g.WeighRandom(9, 44)
	s, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	need := PredictedVertexCoverRounds(g.MaxDegree(), g.MaxWeight())
	if _, err := s.VertexCover(context.Background(), WithRoundBudget(need-1)); !errors.Is(err, ErrRoundBudget) {
		t.Fatalf("budget %d for a %d-round schedule: err = %v, want ErrRoundBudget", need-1, need, err)
	}
	res, err := s.VertexCover(context.Background(), WithRoundBudget(need))
	if err != nil {
		t.Fatalf("sufficient budget: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSolverObserverAndCancel(t *testing.T) {
	g := RandomGraph(30, 60, 5, 45)
	g.WeighRandom(9, 46)
	s, err := Compile(g, WithEngine(EngineSharded), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seen []RoundInfo
	res, err := s.VertexCover(context.Background(), WithObserver(func(ri RoundInfo) {
		seen = append(seen, ri)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Rounds {
		t.Fatalf("observer fired %d times over %d rounds", len(seen), res.Rounds)
	}
	last := seen[len(seen)-1]
	if last.Round != res.Rounds || last.Total != res.Rounds ||
		last.Messages != res.Messages || last.Bytes != res.Bytes {
		t.Fatalf("final observation %+v does not match result (rounds %d, messages %d, bytes %d)",
			last, res.Rounds, res.Messages, res.Bytes)
	}
	// Cancellation from inside the observer stops the run at the next
	// round barrier.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	_, err = s.VertexCover(ctx, WithObserver(func(ri RoundInfo) {
		fired++
		if ri.Round == 3 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired != 3 {
		t.Fatalf("run continued for %d rounds after cancellation at round 3", fired)
	}
}

// TestBroadcastDeclaredBounds: WithDegreeBound/WithWeightBound must
// reach the broadcast-model algorithm (they were silently ignored
// before the session API), inflating the schedule exactly as
// PredictedBroadcastVCRounds says.
func TestBroadcastDeclaredBounds(t *testing.T) {
	g := CycleGraph(8) // Δ = 2
	g.WeighRandom(5, 47)
	def := VertexCoverBroadcast(g)
	if def.Rounds != PredictedBroadcastVCRounds(2, g.MaxWeight()) {
		t.Fatalf("default rounds %d, want %d", def.Rounds, PredictedBroadcastVCRounds(2, g.MaxWeight()))
	}
	for _, c := range []struct {
		delta int
		w     int64
	}{
		{3, 0},
		{0, 1 << 20},
		{4, 1 << 20},
	} {
		delta, w := c.delta, c.w
		if delta == 0 {
			delta = g.MaxDegree()
		}
		if w == 0 {
			w = g.MaxWeight()
		}
		opts := []Option{}
		if c.delta != 0 {
			opts = append(opts, WithDegreeBound(c.delta))
		}
		if c.w != 0 {
			opts = append(opts, WithWeightBound(c.w))
		}
		res := VertexCoverBroadcast(g, opts...)
		want := PredictedBroadcastVCRounds(delta, w)
		if res.Rounds != want {
			t.Fatalf("Δ=%d W=%d: rounds %d, want %d", delta, w, res.Rounds, want)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("Δ=%d W=%d: %v", delta, w, err)
		}
	}
	// An inflated degree bound strictly grows the schedule (the Δ² term
	// dominates); a bound that were silently dropped would not.
	if got := VertexCoverBroadcast(g, WithDegreeBound(3)).Rounds; got <= def.Rounds {
		t.Fatalf("Δ=3: rounds %d did not exceed default %d", got, def.Rounds)
	}
}

// TestSetCoverEarlyExit: the public WithEarlyExit option stops the
// simulation once the packing is maximal; the outputs are unchanged and
// ScheduledRounds stays the honest deterministic cost.
func TestSetCoverEarlyExit(t *testing.T) {
	ins := RandomSetCover(15, 40, 3, 6, 9, 48)
	full := SetCover(ins)
	early := SetCover(ins, WithEarlyExit())
	if early.ScheduledRounds != full.ScheduledRounds {
		t.Fatalf("early exit changed ScheduledRounds: %d vs %d",
			early.ScheduledRounds, full.ScheduledRounds)
	}
	if early.Rounds > full.Rounds {
		t.Fatalf("early exit ran %d rounds, full schedule %d", early.Rounds, full.Rounds)
	}
	if err := early.Verify(); err != nil {
		t.Fatal(err)
	}
	for s := range full.Cover {
		if early.Cover[s] != full.Cover[s] {
			t.Fatalf("early exit changed the cover at subset %d", s)
		}
	}
	for u := range full.Packing {
		if early.Packing[u].Cmp(full.Packing[u]) != 0 {
			t.Fatalf("early exit changed the packing at element %d", u)
		}
	}
	// On a typical random instance the packing saturates well before
	// the worst-case schedule; the option should actually save rounds.
	if early.Rounds == full.Rounds {
		t.Logf("note: early exit saved no rounds on this instance (%d)", early.Rounds)
	}
}

// TestSolverUncoverableInstance: CompileSetCover refuses an instance
// with an uncovered element instead of failing mid-run.
func TestSolverUncoverableInstance(t *testing.T) {
	ins := NewSetCover(2, 2).AddMember(0, 0).Build() // element 1 uncovered
	if _, err := CompileSetCover(ins); err == nil {
		t.Fatal("uncoverable instance compiled without error")
	}
}

// TestSolverViewPerShardCount: a per-run engine override on a Sharded
// session partitions once for the session, not once per run — the
// second and later overridden runs get the view the first one built,
// with the shard count the kernel runs at, so it uses the view as is.
func TestSolverViewPerShardCount(t *testing.T) {
	g := GridGraph(12, 12)
	g.WeighRandom(50, 3)
	ins := RandomSetCover(10, 24, 3, 6, 12, 35)
	vc, err := Compile(g, WithEngine(EngineSharded), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	sc, err := CompileSetCover(ins, WithEngine(EngineSharded), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	refVC, refSC := VertexCover(g), SetCover(ins)
	for _, c := range []struct {
		name string
		v    *views
		run  func(opts ...Option) error
	}{
		{"vertexcover", vc.views, func(opts ...Option) error {
			got, err := vc.VertexCover(context.Background(), opts...)
			if err == nil {
				mustSameVC(t, "override", refVC, got)
			}
			return err
		}},
		{"setcover", sc.views, func(opts ...Option) error {
			got, err := sc.SetCover(context.Background(), opts...)
			if err == nil {
				mustSameSC(t, "override", refSC, got)
			}
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			seq := WithEngine(EngineSequential)
			for rep := 0; rep < 3; rep++ {
				if err := c.run(seq); err != nil {
					t.Fatal(err)
				}
				if err := c.run(); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(c.v.byK); n != 2 {
				t.Fatalf("%d views after sequential overrides on a sharded-2 session, want 2", n)
			}
			cfg := config{engine: EngineSequential}
			first, k := c.v.forRun(&cfg)
			if again, _ := c.v.forRun(&cfg); again != first || k != first.K() || first.K() != 1 {
				t.Fatalf("sequential view: %p then %p, K %d, workers %d", first, again, first.K(), k)
			}
			own := config{engine: EngineSharded, workers: 2}
			if compiled, k := c.v.forRun(&own); compiled != c.v.compiled || k != 2 {
				t.Fatalf("session's own runs moved off the compiled view (K %d)", k)
			}
		})
	}
}
