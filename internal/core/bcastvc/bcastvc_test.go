package bcastvc

import (
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/check"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

func verify(t *testing.T, g *graph.G, res *Result) {
	t.Helper()
	if err := check.EdgePackingMaximal(g, res.Y); err != nil {
		t.Fatalf("packing not maximal: %v", err)
	}
	sat := check.SaturatedNodes(g, res.Y)
	for v := range sat {
		if sat[v] != res.Cover[v] {
			t.Fatalf("node %d: cover flag %v but saturation %v", v, res.Cover[v], sat[v])
		}
	}
	if err := check.VCDualityCertificate(g, res.Y, res.Cover); err != nil {
		t.Fatalf("2-approximation certificate: %v", err)
	}
}

func TestSingleEdge(t *testing.T) {
	b := graph.NewBuilder(2).AddEdge(0, 1)
	b.SetWeight(0, 2)
	b.SetWeight(1, 5)
	g := b.Build()
	res := MustRun(g, Options{})
	verify(t, g, res)
	if !res.Cover[0] || res.Cover[1] {
		t.Fatal("only the light endpoint should be saturated")
	}
}

func TestSmallFamilies(t *testing.T) {
	gens := map[string]func() *graph.G{
		"path5":    func() *graph.G { return graph.Path(5) },
		"cycle6":   func() *graph.G { return graph.Cycle(6) },
		"star5":    func() *graph.G { return graph.Star(5) },
		"triangle": func() *graph.G { return graph.Complete(3) },
		"weighted": func() *graph.G {
			b := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 0)
			b.SetWeight(0, 3)
			b.SetWeight(1, 7)
			b.SetWeight(2, 2)
			b.SetWeight(3, 9)
			return b.Build()
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			g := gen()
			res := MustRun(g, Options{})
			verify(t, g, res)
		})
	}
}

// TestMatchesDirectFractionalPacking cross-validates the history-based
// simulation against running the fracpack algorithm directly on the
// incidence instance H: the per-edge packing values and the chosen
// subsets must agree exactly.
func TestMatchesDirectFractionalPacking(t *testing.T) {
	g := graph.RandomBoundedDegree(10, 14, 3, 5)
	graph.RandomWeights(g, 7, 6)
	res := MustRun(g, Options{})
	verify(t, g, res)

	ins := bipartite.FromGraph(g)
	direct := fracpack.MustRun(ins, fracpack.Options{})
	// Element u of H is edge u of G by construction of FromGraph.
	for e := range res.Y {
		if !res.Y[e].Equal(direct.Y[e]) {
			t.Fatalf("edge %d: simulated y = %v, direct y = %v", e, res.Y[e], direct.Y[e])
		}
	}
	for v := range res.Cover {
		if res.Cover[v] != direct.Cover[v] {
			t.Fatalf("node %d: simulated cover %v, direct %v", v, res.Cover[v], direct.Cover[v])
		}
	}
	if res.HRounds != direct.ScheduledRounds {
		t.Fatalf("H rounds %d != direct schedule %d", res.HRounds, direct.ScheduledRounds)
	}
	if res.Rounds != res.HRounds+1 {
		t.Fatalf("G rounds %d, want HRounds+1 = %d", res.Rounds, res.HRounds+1)
	}
}

func TestScrambleSeedsAndEnginesAgree(t *testing.T) {
	g := graph.RandomBoundedDegree(8, 11, 3, 9)
	graph.RandomWeights(g, 5, 10)
	ref := MustRun(g, Options{})
	for _, eng := range []sim.Engine{sim.Sharded, sim.CSP} {
		got := MustRun(g, Options{Engine: eng})
		for e := range ref.Y {
			if !got.Y[e].Equal(ref.Y[e]) {
				t.Fatalf("engine %v: edge %d differs", eng, e)
			}
		}
	}
	for _, seed := range []int64{1, 99} {
		got := MustRun(g, Options{ScrambleSeed: seed})
		for e := range ref.Y {
			if !got.Y[e].Equal(ref.Y[e]) {
				t.Fatalf("scramble %d: edge %d differs — order dependence in the broadcast program", seed, e)
			}
		}
	}
}

// TestIdenticalNeighbours exercises the tie-breaking path: a node with
// several neighbours whose histories are forever identical.
func TestIdenticalNeighbours(t *testing.T) {
	// A star with equal leaf weights: every leaf has the same view, so
	// the centre receives Δ identical histories every round.
	g := graph.Star(6)
	graph.UniformWeights(g, 4)
	res := MustRun(g, Options{})
	verify(t, g, res)
	if !res.Cover[0] {
		t.Fatal("centre must be saturated")
	}
}

func TestMessageGrowth(t *testing.T) {
	// The full-history broadcast grows linearly with the round number —
	// the message-complexity cost Section 5 concedes.  The largest
	// message must clearly exceed the per-round payload bound times a
	// constant, i.e. scale with rounds, not stay flat.
	g := graph.Cycle(8)
	graph.RandomWeights(g, 9, 3)
	res := MustRun(g, Options{})
	verify(t, g, res)
	if res.MaxMsgBytes < res.Rounds {
		t.Fatalf("max message %d bytes over %d rounds: history growth missing?",
			res.MaxMsgBytes, res.Rounds)
	}
}

func TestRoundsFormula(t *testing.T) {
	p3 := Rounds(sim.Params{Delta: 3, W: 8})
	p4 := Rounds(sim.Params{Delta: 4, W: 8})
	if p3 <= 0 || p4 <= p3 {
		t.Fatalf("rounds not growing with Δ: %d, %d", p3, p4)
	}
	if Rounds(sim.Params{Delta: 0, W: 1}) != 0 {
		t.Fatal("edgeless graph needs 0 rounds")
	}
	// O(Δ²) growth: quadrupling Δ should grow rounds superlinearly.
	p12 := Rounds(sim.Params{Delta: 12, W: 8})
	if p12 < 4*p3 {
		t.Fatalf("rounds not superlinear in Δ: %d vs %d", p3, p12)
	}
}

// TestAgainstPortNumberingInvariants: the broadcast algorithm must still
// produce a valid maximal packing on graphs where Phase-II-style symmetry
// breaking is impossible (regular, uniform weights) — the case the
// Section 7 discussion builds on.
func TestRegularUniform(t *testing.T) {
	g := graph.Cycle(7) // odd cycle: no proper 2-colouring to exploit
	res := MustRun(g, Options{})
	verify(t, g, res)
	// All nodes locally identical: every edge must carry the same value
	// and every node must make the same decision.
	for e := 1; e < g.M(); e++ {
		if !res.Y[e].Equal(res.Y[0]) {
			t.Fatal("symmetric instance produced asymmetric packing")
		}
	}
	for v := 1; v < g.N(); v++ {
		if res.Cover[v] != res.Cover[0] {
			t.Fatal("symmetric instance produced asymmetric cover")
		}
	}
}
