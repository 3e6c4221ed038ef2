package edgepack

import (
	"testing"

	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// mustEqualResults asserts two runs produced bit-identical observable
// results.
func mustEqualResults(t *testing.T, ref, got *Result) {
	t.Helper()
	if got.Rounds != ref.Rounds || got.Stats.Messages != ref.Stats.Messages ||
		got.Stats.Bytes != ref.Stats.Bytes {
		t.Fatalf("stats diverge: %+v != %+v", got.Stats, ref.Stats)
	}
	for v := range ref.Cover {
		if got.Cover[v] != ref.Cover[v] {
			t.Fatalf("cover diverges at node %d", v)
		}
	}
	for e := range ref.Y {
		if !got.Y[e].Equal(ref.Y[e]) {
			t.Fatalf("edge %d packing diverges: %v != %v", e, got.Y[e], ref.Y[e])
		}
	}
}

// TestProgramPoolReuse: runs served from recycled (Reset) programs must
// be bit-identical to fresh-program runs, run after run, on the wire
// and boxed paths alike.
func TestProgramPoolReuse(t *testing.T) {
	g := graph.PowerLaw(120, 3, 7)
	graph.RandomWeights(g, 50, 3)
	ref := MustRun(g, Options{})
	pool := &ProgramPool{}
	for _, noWire := range []bool{false, true} {
		for i := 0; i < 3; i++ {
			got := MustRun(g, Options{Programs: pool, NoWire: noWire})
			mustEqualResults(t, ref, got)
		}
	}
}

// TestProgramPoolAcrossGraphs: slabs are matched by node count only,
// so a pool shared across graphs must serve a graph with the same n
// but a different degree sequence correctly — every per-degree buffer,
// including the lazily sized Send buffer, must be reshaped by Reset.
func TestProgramPoolAcrossGraphs(t *testing.T) {
	gs := []*graph.G{
		graph.Grid(6, 10),                         // n=60, degrees 2..4
		graph.RandomRegular(60, 6, 3),             // n=60, degree 6
		graph.RandomBoundedDegree(60, 100, 8, 11), // n=60, degrees 0..8
	}
	pool := &ProgramPool{}
	for round := 0; round < 2; round++ {
		for _, g := range gs {
			graph.RandomWeights(g, 9, 4)
			ref := MustRun(g, Options{})
			got := MustRun(g, Options{Programs: pool})
			mustEqualResults(t, ref, got)
			// Force the boxed path too: it exercises Send's reused
			// outgoing buffer, the lazily sized one.
			got = MustRun(g, Options{Programs: pool, NoWire: true})
			mustEqualResults(t, ref, got)
		}
	}
}

// TestProgramPoolSetupAllocs is the Reset protocol's budget test.
// Building fresh programs costs several heap allocations per node (the
// struct plus its per-port slices); checking a slab out of a warm pool
// must cost (amortised) none — Reset reuses every buffer when the
// shape has not changed.
func TestProgramPoolSetupAllocs(t *testing.T) {
	g := graph.RandomRegular(256, 4, 1)
	graph.RandomWeights(g, 9, 2)
	envs := sim.GraphEnvs(g, sim.GraphParams(g))
	n := float64(g.N())

	fresh := testing.AllocsPerRun(5, func() {
		for v := range envs {
			_ = New(envs[v])
		}
	})
	t.Logf("fresh setup: %.2f allocs/node", fresh/n)
	if fresh/n < 4 {
		t.Fatalf("fresh setup is only %.2f allocs/node; the pool has nothing to save and this test is stale", fresh/n)
	}

	pool := &ProgramPool{}
	pool.Put(pool.Get(envs)) // warm one slab
	pooled := testing.AllocsPerRun(5, func() {
		pool.Put(pool.Get(envs))
	})
	t.Logf("pooled setup: %.4f allocs/node", pooled/n)
	if pooled/n > 0.05 {
		t.Errorf("warm pool checkout costs %.4f allocs/node, budget 0.05", pooled/n)
	}

	// And the end-to-end effect: a pooled run must be cheaper than a
	// fresh-program run by at least most of that setup.
	top := g.Flat()
	freshRun := testing.AllocsPerRun(3, func() {
		MustRun(g, Options{Topology: top})
	})
	MustRun(g, Options{Topology: top, Programs: pool})
	pooledRun := testing.AllocsPerRun(3, func() {
		MustRun(g, Options{Topology: top, Programs: pool})
	})
	t.Logf("full runs: fresh %.2f, pooled %.2f allocs/node", freshRun/n, pooledRun/n)
	if saved := (freshRun - pooledRun) / n; saved < 4 {
		t.Errorf("pooling saves only %.2f allocs/node across a full run, want >= 4", saved)
	}
}

// TestWireOverflowFallsBackBoxed: a graph that passes the promotion
// gate but whose star-phase rationals still outgrow int64 must abort
// the wire attempt mid-run, rerun boxed, and return exactly the
// boxed-path result.  (Found by seed search: regular-40-6 with weights
// up to 127 sits right at the gate's edge.  Which weight seeds overflow
// depends on the Phase II orientation, so the seed is re-searched when
// the colour order changes.)
func TestWireOverflowFallsBackBoxed(t *testing.T) {
	g := graph.RandomRegular(40, 6, 0)
	graph.RandomWeights(g, 127, 108)

	// First establish the premise: the gate admits this run to the wire
	// path, and the raw simulator run really does abort on overflow.
	params := sim.GraphParams(g)
	if wireLaneWords(params) == 0 {
		t.Fatal("gate rejected the crafted graph; the runtime fallback is untested")
	}
	envs := sim.GraphEnvs(g, params)
	progs := make([]sim.PortProgram, g.N())
	for v := range progs {
		progs[v] = New(envs[v])
	}
	_, err := sim.RunPort(g, progs, Rounds(params), sim.Options{Engine: sim.Sequential})
	if err != sim.ErrWireOverflow {
		t.Fatalf("crafted graph did not overflow the wire path (err = %v); the fallback is untested", err)
	}

	// The package-level Run hides the fallback; its result must match a
	// forced boxed run exactly.
	ref := MustRun(g, Options{NoWire: true})
	got := MustRun(g, Options{})
	mustEqualResults(t, ref, got)
}

// TestWireGateDeclinesLargeDelta: parameter ranges whose rationals are
// near-certain to promote must not even attempt the wire path.
func TestWireGateDeclinesLargeDelta(t *testing.T) {
	if w := wireLaneWords(sim.Params{Delta: 12, W: 10}); w != 0 {
		t.Fatalf("gate admitted Δ=12 (lane %d words), want boxed", w)
	}
	if w := wireLaneWords(sim.Params{Delta: 4, W: 1 << 40}); w != 0 {
		t.Fatalf("gate admitted W=2^40 (lane %d words), want boxed", w)
	}
	if w := wireLaneWords(sim.Params{Delta: 4, W: 25}); w == 0 {
		t.Fatal("gate declined the bread-and-butter Δ=4 range")
	}
}

// TestProgramPoolWeightRebind: a pooled program serves weight-snapshot
// reruns — same structure and declared bounds, fresh weights via
// graph.WeightView — bit-identically to fresh programs.  Declared
// Δ/W bounds keep Params constant across the reruns, so this also
// exercises Reset's cached-schedule fast path.
func TestProgramPoolWeightRebind(t *testing.T) {
	g := graph.PowerLaw(100, 3, 19)
	pool := &ProgramPool{}
	opts := Options{Delta: g.MaxDegree(), W: 64}
	for seed := int64(0); seed < 3; seed++ {
		w := make([]int64, g.N())
		for v := range w {
			w[v] = 1 + (int64(v)*7+seed*13)%64
		}
		view := g.WeightView(w)
		ref := MustRun(view, opts)
		pooled := opts
		pooled.Programs = pool
		for i := 0; i < 2; i++ {
			mustEqualResults(t, ref, MustRun(view, pooled))
		}
	}
}

// TestRunAllocBudget bounds the allocations of a pooled Sequential run
// at the benchmark's Δ=12, W=1000 parameters.  Binary Phase I colours,
// word-sized Cole–Vishkin and the incremental residual bring a run on
// this instance to about 53k allocations.  The budget leaves 23 %
// headroom and still fails each of: per-forest big.Int Cole–Vishkin
// steps (about 91k), a residual re-summed over every port on each
// update (about 74k), and decimal colour encodings (about 380k with all
// three).
func TestRunAllocBudget(t *testing.T) {
	g := graph.PowerLawBounded(1000, 3, 12, 1)
	graph.RandomWeights(g, 1000, 2)
	opt := Options{Engine: sim.Sequential, Delta: 12, W: 1000, Topology: g.Flat(), Programs: &ProgramPool{}}
	MustRun(g, opt) // warm the pool
	allocs := testing.AllocsPerRun(3, func() { MustRun(g, opt) })
	t.Logf("pooled Sequential run: %.0f allocs", allocs)
	if allocs > 65000 {
		t.Fatalf("pooled run costs %.0f allocs, budget 65000", allocs)
	}
}
