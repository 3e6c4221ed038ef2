package baselines

import (
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/check"
	"anoncover/internal/exact"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

func TestTrivialBroadcast(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ins := bipartite.Random(8, 20, 3, 5, 12, seed)
		res := TrivialBroadcast(ins)
		if err := check.SetCover(ins, res.Cover); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, opt := exact.SetCover(ins)
		bound := int64(ins.MaxF()) * int64(ins.MaxK()) * opt
		if got := ins.CoverWeight(res.Cover); got > bound {
			t.Fatalf("seed %d: broadcast trivial %d > f·k·OPT = %d", seed, got, bound)
		}
	}
}

func TestTrivialBroadcastPicksAllTies(t *testing.T) {
	// Two equal-weight subsets over one element: unlike the port model,
	// both join — the degradation the broadcast model forces.
	ins := bipartite.NewBuilder(2, 1).AddEdge(0, 0).AddEdge(1, 0).Build()
	res := TrivialBroadcast(ins)
	if !res.Cover[0] || !res.Cover[1] {
		t.Fatalf("broadcast trivial must pick all tied subsets: %v", res.Cover)
	}
	// The port-numbering version picks only one.
	port := TrivialKApprox(ins)
	if port.Cover[0] == port.Cover[1] {
		t.Fatal("port version should break the tie")
	}
}

// TestPSDistributedMatchesReference: the engine-run node program must
// reproduce the reference implementation exactly — covers, rounds, and
// across all engines.
func TestPSDistributedMatchesReference(t *testing.T) {
	gens := []func(seed int64) *graph.G{
		func(s int64) *graph.G { return graph.Cycle(11) },
		func(s int64) *graph.G { return graph.Star(8) },
		func(s int64) *graph.G { return graph.RandomRegular(14, 3, s) },
		func(s int64) *graph.G { return graph.RandomBoundedDegree(25, 45, 5, s) },
		func(s int64) *graph.G { return graph.Petersen() },
	}
	for gi, gen := range gens {
		for seed := int64(0); seed < 3; seed++ {
			g := gen(seed)
			ref := PolishchukSuomela3Approx(g)
			for _, eng := range []sim.Engine{sim.Sequential, sim.Sharded, sim.CSP} {
				got, _ := PolishchukSuomelaDistributed(g, sim.Options{Engine: eng})
				if got.Rounds != ref.Rounds {
					t.Fatalf("gen %d seed %d engine %v: rounds %d != %d",
						gi, seed, eng, got.Rounds, ref.Rounds)
				}
				for v := range ref.Cover {
					if got.Cover[v] != ref.Cover[v] {
						t.Fatalf("gen %d seed %d engine %v: cover differs at node %d",
							gi, seed, eng, v)
					}
				}
			}
			if err := check.VertexCover(g, ref.Cover); err != nil {
				t.Fatalf("gen %d seed %d: %v", gi, seed, err)
			}
		}
	}
}

func TestPSDistributedIsThreeApprox(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.RandomBoundedDegree(16, 26, 4, seed+30)
		res, _ := PolishchukSuomelaDistributed(g, sim.Options{})
		_, opt := exact.VertexCover(g)
		if got := check.CoverWeight(g, res.Cover); got > 3*opt {
			t.Fatalf("seed %d: %d > 3*OPT = %d", seed, got, 3*opt)
		}
	}
}
