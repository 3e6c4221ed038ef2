package anoncover

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// weightVector derives a deterministic positive weight vector.
func weightVector(n int, maxW, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + r.Int63n(maxW)
	}
	return w
}

// TestEquivUpdateWeights is the weight-snapshot acceptance matrix: runs
// after UpdateWeights are bit-identical to a fresh Compile+run on the
// same weights, across sequential/sharded engines on both the
// wire and boxed delivery paths — with no recompile of the solver.
func TestEquivUpdateWeights(t *testing.T) {
	build := func() *Graph { return RandomGraph(60, 120, 6, 31) }
	s, err := Compile(build(), WithEngine(EngineSharded), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, seed := range []int64{71, 72, 73} {
		w := weightVector(s.Graph().N(), 25, seed)
		// Fresh from-scratch reference on an independently built graph.
		fresh := build()
		for v, x := range w {
			fresh.SetWeight(v, x)
		}
		ref := VertexCover(fresh)
		if err := s.UpdateWeights(w); err != nil {
			t.Fatal(err)
		}
		for _, ev := range solverEngineVariants() {
			got, err := s.VertexCover(context.Background(), ev.opts...)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, ev.name, err)
			}
			mustSameVC(t, ev.name, ref, got)
			if err := got.Verify(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, ev.name, err)
			}
		}
	}
}

// TestEquivUpdateWeightsBroadcast: the broadcast-model algorithm rides
// the same snapshot (small instance — the history simulation is
// quadratic in Δ).
func TestEquivUpdateWeightsBroadcast(t *testing.T) {
	build := func() *Graph { return RandomGraph(14, 18, 4, 33) }
	s, err := Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := weightVector(14, 6, 77)
	fresh := build()
	for v, x := range w {
		fresh.SetWeight(v, x)
	}
	ref := VertexCoverBroadcast(fresh)
	if err := s.UpdateWeights(w); err != nil {
		t.Fatal(err)
	}
	got, err := s.VertexCoverBroadcast(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mustSameVC(t, "broadcast", ref, got)
}

// TestWithWeightsPinned: WithWeights pins one run without touching the
// session snapshot.
func TestWithWeightsPinned(t *testing.T) {
	g := RandomGraph(40, 80, 5, 51)
	g.WeighRandom(9, 52)
	base := VertexCover(g)
	s, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	w := weightVector(g.N(), 30, 99)
	fresh := RandomGraph(40, 80, 5, 51)
	for v, x := range w {
		fresh.SetWeight(v, x)
	}
	ref := VertexCover(fresh)

	got, err := s.VertexCover(context.Background(), WithWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	mustSameVC(t, "pinned", ref, got)

	// The session snapshot is untouched: a plain run still serves the
	// compile-time weights.
	plain, err := s.VertexCover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mustSameVC(t, "plain-after-pinned", base, plain)

	// Pinning the current snapshot's weights reuses it.
	same, err := s.VertexCover(context.Background(), WithWeights(s.Weights()))
	if err != nil {
		t.Fatal(err)
	}
	mustSameVC(t, "pinned-current", base, same)
}

// TestUpdateWeightsValidation: shape, positivity and declared-bound
// violations are errors, for both solver kinds.
func TestUpdateWeightsValidation(t *testing.T) {
	g := RandomGraph(20, 40, 5, 61)
	s, err := Compile(g, WithWeightBound(100))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateWeights(make([]int64, 3)); err == nil {
		t.Error("short weight vector accepted")
	}
	bad := weightVector(g.N(), 10, 1)
	bad[7] = 0
	if err := s.UpdateWeights(bad); err == nil {
		t.Error("zero weight accepted")
	}
	bad[7] = 101
	if err := s.UpdateWeights(bad); err == nil {
		t.Error("weight above declared WithWeightBound accepted")
	}
	bad[7] = 100
	if err := s.UpdateWeights(bad); err != nil {
		t.Errorf("weight at the declared bound rejected: %v", err)
	}
	if _, err := s.VertexCover(context.Background(), WithWeights(make([]int64, 3))); err == nil {
		t.Error("short pinned vector accepted")
	}

	ins := RandomSetCover(15, 40, 3, 6, 9, 62)
	sc, err := CompileSetCover(ins)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.UpdateWeights(make([]int64, ins.Subsets()+1)); err == nil {
		t.Error("set-cover weight vector of wrong length accepted")
	}
}

// TestEquivUpdateWeightsSetCover: the set-cover snapshot path matches a
// fresh compile on the same subset weights, wire and boxed.
func TestEquivUpdateWeightsSetCover(t *testing.T) {
	build := func() *SetCoverInstance { return RandomSetCover(20, 60, 3, 8, 9, 81) }
	s, err := CompileSetCover(build(), WithEngine(EngineSharded), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, seed := range []int64{5, 6} {
		ins := build()
		w := weightVector(ins.Subsets(), 40, seed)
		for i, x := range w {
			ins.SetWeight(i, x)
		}
		ref := SetCover(ins)
		if err := s.UpdateWeights(w); err != nil {
			t.Fatal(err)
		}
		for _, ev := range solverEngineVariants() {
			got, err := s.SetCover(context.Background(), ev.opts...)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, ev.name, err)
			}
			mustSameSC(t, ev.name, ref, got)
		}
		// Instance-side weight mutation is absorbed the same way.
		for i, x := range w {
			s.Instance().SetWeight(i, x)
		}
		got, err := s.SetCover(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		mustSameSC(t, "instance-mutation", ref, got)
	}
}

// sameVC is the goroutine-safe twin of mustSameVC (t.Fatal must not be
// called off the test goroutine).
func sameVC(ref, got *VertexCoverResult) bool {
	if got.Weight != ref.Weight || got.Rounds != ref.Rounds ||
		got.Messages != ref.Messages || got.Bytes != ref.Bytes {
		return false
	}
	for v := range ref.Cover {
		if got.Cover[v] != ref.Cover[v] {
			return false
		}
	}
	for e := range ref.Packing {
		if got.Packing[e].Cmp(ref.Packing[e]) != 0 {
			return false
		}
	}
	return true
}

// TestUpdateWeightsSoak interleaves UpdateWeights, pinned and unpinned
// concurrent runs, and Close under -race, pinning that every pinned
// run's output is bit-identical to a fresh one-shot on its snapshot.
func TestUpdateWeightsSoak(t *testing.T) {
	const vectors = 4
	build := func() *Graph { return GridGraph(8, 8) }
	g := build()
	s, err := Compile(g, WithEngine(EngineSharded), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	ws := make([][]int64, vectors)
	refs := make([]*VertexCoverResult, vectors)
	for i := range ws {
		ws[i] = weightVector(g.N(), 12, int64(100+i))
		fresh := build()
		for v, x := range ws[i] {
			fresh.SetWeight(v, x)
		}
		refs[i] = VertexCover(fresh)
	}

	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	for gor := 0; gor < 4; gor++ {
		wg.Add(1)
		go func(gor int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (gor + it) % vectors
				switch gor % 3 {
				case 0: // installer: runs see whatever snapshot is current
					if err := s.UpdateWeights(ws[i]); err != nil {
						t.Error(err)
						return
					}
					res, err := s.VertexCover(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					if err := res.Verify(); err != nil {
						t.Error(err)
						return
					}
				default: // pinned runs: must match their snapshot's reference exactly
					res, err := s.VertexCover(context.Background(), WithWeights(ws[i]))
					if err != nil {
						t.Error(err)
						return
					}
					if !sameVC(refs[i], res) {
						t.Errorf("pinned run on vector %d diverged from its fresh one-shot", i)
						return
					}
				}
			}
		}(gor)
	}
	wg.Wait()
	s.Close()
	// Runs after Close still serve correctly (paying setup again).
	res, err := s.VertexCover(context.Background(), WithWeights(ws[0]))
	if err != nil {
		t.Fatal(err)
	}
	mustSameVC(t, "after-close", refs[0], res)
}
