package anoncover

import (
	"bytes"
	"math/big"
	"testing"

	"anoncover/internal/check"
)

func TestVertexCoverAPI(t *testing.T) {
	g := RandomGraph(80, 160, 6, 1)
	g.WeighRandom(50, 2)
	res := VertexCover(g)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Weight <= 0 || res.Rounds <= 0 || res.Messages <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if len(res.Packing) != g.M() || len(res.Cover) != g.N() {
		t.Fatal("result sizes wrong")
	}
	if res.Rounds != PredictedVertexCoverRounds(g.MaxDegree(), g.MaxWeight()) {
		t.Fatal("round prediction mismatch")
	}
}

func TestVertexCoverRatioAgainstOptimal(t *testing.T) {
	g := RandomGraph(16, 28, 4, 3)
	g.WeighRandom(9, 4)
	res := VertexCover(g)
	_, opt := OptimalVertexCover(g)
	if res.Weight > 2*opt {
		t.Fatalf("weight %d exceeds 2*OPT = %d", res.Weight, 2*opt)
	}
}

func TestSetCoverAPI(t *testing.T) {
	ins := RandomSetCover(10, 24, 3, 6, 12, 5)
	res := SetCover(ins)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if !ins.IsCover(res.Cover) {
		t.Fatal("not a cover")
	}
	if res.Weight != ins.CoverWeight(res.Cover) {
		t.Fatal("weight mismatch")
	}
	_, opt := OptimalSetCover(ins)
	if res.Weight > int64(ins.MaxFrequency())*opt {
		t.Fatalf("weight %d exceeds f*OPT = %d", res.Weight, int64(ins.MaxFrequency())*opt)
	}
	if res.Rounds != PredictedSetCoverRounds(ins.MaxFrequency(), ins.MaxSubsetSize(), ins.MaxWeight()) {
		t.Fatal("round prediction mismatch")
	}
}

func TestVertexCoverBroadcastAPI(t *testing.T) {
	g := CycleGraph(8)
	g.WeighRandom(5, 6)
	res := VertexCoverBroadcast(g)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != PredictedBroadcastVCRounds(g.MaxDegree(), g.MaxWeight()) {
		t.Fatal("round prediction mismatch")
	}
	// The broadcast route costs strictly more rounds than port numbering.
	port := VertexCover(g)
	if res.Rounds <= port.Rounds {
		t.Fatalf("broadcast %d rounds should exceed port-numbering %d", res.Rounds, port.Rounds)
	}
}

func TestEnginesAgreeThroughAPI(t *testing.T) {
	g := RandomGraph(40, 80, 5, 7)
	g.WeighRandom(20, 8)
	ref := VertexCover(g, WithEngine(EngineSequential))
	for _, e := range []Engine{EngineCSP, EngineSharded} {
		got := VertexCover(g, WithEngine(e), WithWorkers(4))
		if got.Weight != ref.Weight {
			t.Fatalf("engine %v: weight %d != %d", e, got.Weight, ref.Weight)
		}
		for i := range ref.Cover {
			if got.Cover[i] != ref.Cover[i] {
				t.Fatalf("engine %v: cover differs at %d", e, i)
			}
		}
		for e2 := range ref.Packing {
			if got.Packing[e2].Cmp(ref.Packing[e2]) != 0 {
				t.Fatalf("engine %v: packing differs at edge %d", e, e2)
			}
		}
	}
}

func TestScrambleSeedInvarianceThroughAPI(t *testing.T) {
	ins := RandomSetCover(8, 16, 3, 5, 9, 11)
	ref := SetCover(ins)
	for _, seed := range []int64{1, 42} {
		got := SetCover(ins, WithScrambleSeed(seed))
		if got.Weight != ref.Weight {
			t.Fatalf("seed %d: weight differs", seed)
		}
	}
}

func TestBuildersAndAccessors(t *testing.T) {
	g := NewGraph(3).AddEdge(0, 1).AddEdge(1, 2).SetWeight(1, 9).Build()
	if g.N() != 3 || g.M() != 2 || g.Deg(1) != 2 || g.Weight(1) != 9 {
		t.Fatal("graph accessors wrong")
	}
	if u, v := g.EdgeEndpoints(0); u != 0 || v != 1 {
		t.Fatal("edge endpoints wrong")
	}
	ins := NewSetCover(2, 2).AddMember(0, 0).AddMember(1, 1).SetWeight(0, 4).Build()
	if ins.Subsets() != 2 || ins.Elements() != 2 || ins.Memberships() != 2 || ins.Weight(0) != 4 {
		t.Fatal("set cover accessors wrong")
	}
	if ins.MaxFrequency() != 1 || ins.MaxSubsetSize() != 1 || ins.MaxWeight() != 4 {
		t.Fatal("parameter accessors wrong")
	}
}

func TestGraphIORoundTripAPI(t *testing.T) {
	g := RandomGraph(20, 35, 5, 9)
	g.WeighRandom(7, 10)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatal("round trip size mismatch")
	}
	var buf2 bytes.Buffer
	ins := RandomSetCover(6, 14, 2, 5, 8, 11)
	if err := WriteSetCover(&buf2, ins); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadSetCover(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Subsets() != ins.Subsets() || back2.Memberships() != ins.Memberships() {
		t.Fatal("set cover round trip mismatch")
	}
}

func TestSymmetricLowerBoundThroughAPI(t *testing.T) {
	ins := SymmetricSetCover(3)
	res := SetCover(ins)
	if res.Weight != 3 {
		t.Fatalf("symmetric instance: weight %d, want 3 (ratio p)", res.Weight)
	}
	_, opt := OptimalSetCover(ins)
	if opt != 1 {
		t.Fatalf("OPT = %d, want 1", opt)
	}
}

func TestFruchtAndLift(t *testing.T) {
	g := FruchtGraph()
	res := VertexCoverBroadcast(g)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	// Section 7: on the Frucht graph every broadcast-model node is
	// symmetric to the others through the universal cover, so y(e) = 1/3
	// everywhere and all nodes join the cover.
	third := res.Packing[0]
	if third.Num().Int64() != 1 || third.Denom().Int64() != 3 {
		t.Fatalf("y(0) = %v, want 1/3", third)
	}
	for e := range res.Packing {
		if res.Packing[e].Cmp(third) != 0 {
			t.Fatalf("edge %d: y = %v, want 1/3", e, res.Packing[e])
		}
	}
	for v, in := range res.Cover {
		if !in {
			t.Fatalf("node %d not in cover", v)
		}
	}
	// Lift invariance through the API.
	lift := LiftGraph(g, 2, 3)
	lres := VertexCoverBroadcast(lift)
	if err := lres.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeclaredBoundsThroughAPI(t *testing.T) {
	g := RandomGraph(30, 50, 4, 21)
	g.WeighRandom(9, 22)
	res := VertexCover(g, WithDegreeBound(8), WithWeightBound(1<<30))
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != PredictedVertexCoverRounds(8, 1<<30) {
		t.Fatalf("rounds %d, want the inflated schedule %d",
			res.Rounds, PredictedVertexCoverRounds(8, 1<<30))
	}
	ins := RandomSetCover(8, 16, 2, 4, 6, 23)
	scRes := SetCover(ins, WithSetCoverBounds(3, 5))
	if err := scRes.Verify(); err != nil {
		t.Fatal(err)
	}
	if scRes.ScheduledRounds != PredictedSetCoverRounds(3, 5, ins.MaxWeight()) {
		t.Fatal("set cover schedule does not reflect declared bounds")
	}
}

func TestDegenerateInstances(t *testing.T) {
	// Edgeless graph: zero rounds, empty cover, everything verifies.
	g := NewGraph(5).Build()
	res := VertexCover(g)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Weight != 0 {
		t.Fatalf("edgeless graph: rounds=%d weight=%d", res.Rounds, res.Weight)
	}
	for _, in := range res.Cover {
		if in {
			t.Fatal("edgeless graph needs nobody in the cover")
		}
	}
	// Set cover with subsets but no elements: nothing to cover.
	ins := NewSetCover(3, 0).Build()
	scRes := SetCover(ins)
	if err := scRes.Verify(); err != nil {
		t.Fatal(err)
	}
	if scRes.Weight != 0 {
		t.Fatalf("empty universe: weight %d", scRes.Weight)
	}
	// Single node, no edges.
	one := NewGraph(1).Build()
	oneRes := VertexCoverBroadcast(one)
	if err := oneRes.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsUnsaturatedCoverNode: Cover is exactly the saturated
// nodes, so a cover that also claims one unsaturated node must fail
// Verify — even when the duality certificate has the slack to absorb
// the extra weight and so cannot catch it on its own.
func TestVerifyRejectsUnsaturatedCoverNode(t *testing.T) {
	g := RandomGraph(40, 80, 5, 7)
	g.WeighRandom(20, 8)
	res := VertexCover(g)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	sum := new(big.Rat)
	for _, y := range res.Packing {
		sum.Add(sum, y)
	}
	slack := new(big.Rat).Sub(sum.Mul(sum, big.NewRat(2, 1)), big.NewRat(res.Weight, 1))
	for v, in := range res.Cover {
		if in || big.NewRat(g.Weight(v), 1).Cmp(slack) > 0 {
			continue
		}
		res.Cover[v] = true
		if err := check.VCDualityCertificate(res.g, res.y, res.Cover); err != nil {
			t.Fatalf("premise: the certificate should still hold with node %d added: %v", v, err)
		}
		if err := res.Verify(); err == nil {
			t.Fatalf("Verify accepted unsaturated node %d in the cover", v)
		}
		return
	}
	t.Fatal("premise: no uncovered node fits the certificate's slack")
}

// TestParseEngine: every engine name String prints parses back to its
// engine, and the deprecated "parallel" name selects the sharded kernel.
func TestParseEngine(t *testing.T) {
	for _, e := range []Engine{EngineSequential, EngineSharded, EngineCSP} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	got, err := ParseEngine("parallel")
	if err != nil || got != EngineSharded || EngineParallel != EngineSharded || got.String() != "sharded" {
		t.Fatalf(`ParseEngine("parallel") = %v, %v; want the sharded engine`, got, err)
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("ParseEngine accepted an unknown engine name")
	}
}
