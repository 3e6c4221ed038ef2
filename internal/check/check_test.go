package check

import (
	"strings"
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
)

func q(n, d int64) rational.Rat { return rational.FromFrac(n, d) }

// triangle with weights 2,2,2: y(e)=1 on all edges saturates all nodes.
func triangle() *graph.G {
	g := graph.Complete(3)
	graph.UniformWeights(g, 2)
	return g
}

func TestEdgePackingFeasible(t *testing.T) {
	g := triangle()
	ok := []rational.Rat{q(1, 1), q(1, 1), q(1, 1)}
	if err := EdgePackingFeasible(g, ok); err != nil {
		t.Fatal(err)
	}
	over := []rational.Rat{q(2, 1), q(1, 1), q(0, 1)}
	if err := EdgePackingFeasible(g, over); err == nil {
		t.Fatal("overpacked accepted")
	}
	neg := []rational.Rat{q(-1, 1), q(1, 1), q(1, 1)}
	if err := EdgePackingFeasible(g, neg); err == nil {
		t.Fatal("negative value accepted")
	}
	if err := EdgePackingFeasible(g, ok[:2]); err == nil {
		t.Fatal("short slice accepted")
	}
}

func TestEdgePackingMaximal(t *testing.T) {
	g := triangle()
	full := []rational.Rat{q(1, 1), q(1, 1), q(1, 1)}
	if err := EdgePackingMaximal(g, full); err != nil {
		t.Fatal(err)
	}
	// Half-packing: y = 1/2 everywhere loads each node with 1 < 2:
	// nothing saturated.
	half := []rational.Rat{q(1, 2), q(1, 2), q(1, 2)}
	if err := EdgePackingMaximal(g, half); err == nil {
		t.Fatal("non-maximal accepted")
	}
	sat := SaturatedNodes(g, full)
	for v, s := range sat {
		if !s {
			t.Fatalf("node %d should be saturated", v)
		}
	}
}

func TestVertexCoverAndWeight(t *testing.T) {
	g := graph.Path(4) // edges 0-1, 1-2, 2-3
	graph.RandomWeights(g, 5, 1)
	good := []bool{false, true, true, false}
	if err := VertexCover(g, good); err != nil {
		t.Fatal(err)
	}
	bad := []bool{true, false, false, true}
	if err := VertexCover(g, bad); err == nil {
		t.Fatal("non-cover accepted")
	}
	if CoverWeight(g, good) != g.Weight(1)+g.Weight(2) {
		t.Fatal("cover weight wrong")
	}
}

func TestVCDualityCertificate(t *testing.T) {
	g := triangle()
	y := []rational.Rat{q(1, 1), q(1, 1), q(1, 1)}
	c := SaturatedNodes(g, y)
	if err := VCDualityCertificate(g, y, c); err != nil {
		t.Fatal(err)
	}
	// An absurd cover that the packing cannot pay for: cover everything
	// with a tiny packing.
	tiny := []rational.Rat{q(1, 100), q(0, 1), q(0, 1)}
	all := []bool{true, true, true}
	err := VCDualityCertificate(g, tiny, all)
	if err == nil || !strings.Contains(err.Error(), "certificate fails") {
		t.Fatalf("bogus certificate accepted: %v", err)
	}
}

func scInstance() *bipartite.Instance {
	// s0 {u0,u1} w2; s1 {u1,u2} w3
	ins := bipartite.NewBuilder(2, 3).
		AddEdge(0, 0).AddEdge(0, 1).AddEdge(1, 1).AddEdge(1, 2).
		Build()
	ins.SetWeight(0, 2)
	ins.SetWeight(1, 3)
	return ins
}

func TestFracPackingFeasibleAndMaximal(t *testing.T) {
	ins := scInstance()
	// y(u0)=1, y(u1)=1, y(u2)=2: y[s0]=2=w0 saturated; y[s1]=3=w1 saturated.
	y := []rational.Rat{q(1, 1), q(1, 1), q(2, 1)}
	if err := FracPackingMaximal(ins, y); err != nil {
		t.Fatal(err)
	}
	sat := SaturatedSubsets(ins, y)
	if !sat[0] || !sat[1] {
		t.Fatal("saturation detection wrong")
	}
	// y(u2)=1: s1 load 2 < 3, u2's only subset unsaturated.
	y2 := []rational.Rat{q(1, 1), q(1, 1), q(1, 1)}
	if err := FracPackingMaximal(ins, y2); err == nil {
		t.Fatal("unsaturated element accepted")
	}
	over := []rational.Rat{q(3, 1), q(0, 1), q(0, 1)}
	if err := FracPackingFeasible(ins, over); err == nil {
		t.Fatal("overpacked subset accepted")
	}
}

func TestFracPackingUncoverableElement(t *testing.T) {
	ins := bipartite.NewBuilder(1, 2).AddEdge(0, 0).Build()
	y := []rational.Rat{q(1, 1), q(0, 1)}
	if err := FracPackingMaximal(ins, y); err == nil {
		t.Fatal("element with no subsets must be an error")
	}
}

func TestSetCoverAndCertificate(t *testing.T) {
	ins := scInstance()
	if err := SetCover(ins, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if err := SetCover(ins, []bool{true, false}); err == nil {
		t.Fatal("u2 uncovered but accepted")
	}
	y := []rational.Rat{q(1, 1), q(1, 1), q(2, 1)}
	if err := SCDualityCertificate(ins, y, []bool{true, true}, ins.MaxF()); err != nil {
		t.Fatal(err)
	}
	tiny := []rational.Rat{q(1, 100), q(0, 1), q(1, 100)}
	if err := SCDualityCertificate(ins, tiny, []bool{true, true}, ins.MaxF()); err == nil {
		t.Fatal("bogus certificate accepted")
	}
}

func TestLoadsMatchDefinition(t *testing.T) {
	g := graph.Star(4) // centre 0, leaves 1..3
	y := []rational.Rat{q(1, 3), q(1, 3), q(1, 3)}
	loads := EdgeLoads(g, y)
	if !loads[0].Equal(rational.One) {
		t.Fatalf("centre load %v", loads[0])
	}
	for v := 1; v <= 3; v++ {
		if !loads[v].Equal(q(1, 3)) {
			t.Fatalf("leaf %d load %v", v, loads[v])
		}
	}
}

// TestSCResultTiesCoverToPacking: a cover holding an unsaturated subset
// is rejected even when f·Σy happens to pay for it.  s1 = {u1} carries
// load y(u1) = 0 < w = 1, yet w(C) = 2 <= f·Σy = 2·1.
func TestSCResultTiesCoverToPacking(t *testing.T) {
	ins := bipartite.NewBuilder(2, 2).AddEdge(0, 0).AddEdge(0, 1).AddEdge(1, 1).Build()
	y := []rational.Rat{q(1, 1), q(0, 1)}
	cover := []bool{true, true}
	if err := SCDualityCertificate(ins, y, cover, 2); err != nil {
		t.Fatalf("premise: the global certificate should hold: %v", err)
	}
	if err := SCResult(ins, y, cover, 2); err == nil {
		t.Fatal("SCResult accepted unsaturated subset 1 in the cover")
	}
	if err := SCResult(ins, y, []bool{true, false}, 2); err != nil {
		t.Fatalf("the cover C(y) rejected: %v", err)
	}
}

// TestSCResultRejectsSmallF: the per-node proof needs f to bound every
// element's degree, so an f below it is rejected.
func TestSCResultRejectsSmallF(t *testing.T) {
	ins := scInstance()
	y := []rational.Rat{q(1, 1), q(1, 1), q(2, 1)}
	if err := SCResult(ins, y, []bool{true, true}, ins.MaxF()); err != nil {
		t.Fatal(err)
	}
	if err := SCResult(ins, y, []bool{true, true}, ins.MaxF()-1); err == nil {
		t.Fatal("f below the element degree accepted")
	}
}
