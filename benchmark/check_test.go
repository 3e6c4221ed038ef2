package main

import (
	"math/big"
	"strings"
	"testing"

	"anoncover"
)

// solvedVC returns a small power-law instance, its weights and the
// library's (correct) result on it.
func solvedVC(t testing.TB) (*vcInst, []int64, *anoncover.VertexCoverResult) {
	t.Helper()
	rng := newRNG(7, 1)
	g := powerLawInst(rng, 60, 2, 6)
	w := randWeights(rng, g.n, 100)
	res, err := libVC(g, w)
	if err != nil {
		t.Fatalf("library result fails the checker: %v", err)
	}
	return g, w, res
}

func TestCheckerAcceptsLibraryOutputs(t *testing.T) {
	g, w, res := solvedVC(t)
	if err := checkRounds(res.Rounds, anoncover.PredictedVertexCoverRounds(g.maxDeg(), maxWeight(w))); err != nil {
		t.Fatal(err)
	}
	if err := smallVC(7, func(g *vcInst, w []int64) ([]bool, int64, error) {
		if lb, opt := byeVC(g, w), bruteVC(g, w); lb > opt {
			t.Errorf("vertex-cover lower bound %d above OPT %d", lb, opt)
		}
		res, err := libVC(g, w)
		if err != nil {
			return nil, 0, err
		}
		return res.Cover, res.Weight, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := smallSC(7, func(ins *scInst, w []int64) ([]bool, int64, error) {
		if lb, opt := byeSC(ins, w), bruteSC(ins, w); lb > opt {
			t.Errorf("set-cover lower bound %d above OPT %d", lb, opt)
		}
		res, err := libSC(ins, w)
		if err != nil {
			return nil, 0, err
		}
		return res.Cover, res.Weight, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsNonCover(t *testing.T) {
	g, w, res := solvedVC(t)
	cover := append([]bool(nil), res.Cover...)
	// Drop one endpoint of an edge whose other endpoint is outside the
	// cover, so the edge is left uncovered.
	for _, uv := range g.edges {
		if cover[uv[0]] != cover[uv[1]] {
			cover[uv[0]], cover[uv[1]] = false, false
			break
		}
	}
	err := checkVCCover(g, w, cover, coverWeight(w, cover))
	if err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("non-cover accepted: %v", err)
	}
	if err := checkVCCover(g, w, res.Cover, res.Weight+1); err == nil {
		t.Fatal("wrong reported weight accepted")
	}
	ins := &scInst{s: 2, u: 2, pairs: [][2]int32{{0, 0}, {1, 1}}}
	if err := checkSCCover(ins, []int64{1, 1}, []bool{true, false}, 1); err == nil {
		t.Fatal("set-cover non-cover accepted")
	}
}

func TestCheckerRejectsInfeasiblePacking(t *testing.T) {
	g, w, res := solvedVC(t)
	y := make([]*big.Rat, len(res.Packing))
	for e, v := range res.Packing {
		y[e] = new(big.Rat).Set(v)
	}
	// Raise one edge's value by one: at least one endpoint is saturated
	// (maximality), so its load now exceeds its weight.
	y[0].Add(y[0], big.NewRat(1, 1))
	err := checkVCPacking(g, w, res.Cover, y)
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("infeasible packing accepted: %v", err)
	}
	// A zero packing is feasible but saturates nothing.
	for e := range y {
		y[e] = new(big.Rat)
	}
	if err := checkVCPacking(g, w, res.Cover, y); err == nil {
		t.Fatal("non-maximal packing accepted")
	}
	ins := &scInst{s: 1, u: 2, pairs: [][2]int32{{0, 0}, {0, 1}}}
	err = checkSCPacking(ins, []int64{2}, []bool{true}, []*big.Rat{big.NewRat(2, 1), big.NewRat(1, 1)}, 1)
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("infeasible set-cover packing accepted: %v", err)
	}
}

func TestCheckerRejectsWrongRoundCount(t *testing.T) {
	_, _, res := solvedVC(t)
	if err := checkRounds(res.Rounds+1, res.Rounds); err == nil {
		t.Fatal("wrong round count accepted")
	}
	want := anoncover.PredictedSetCoverRounds(3, 6, 1000)
	if err := checkSCRounds(want, want-1, want); err == nil {
		t.Fatal("wrong scheduled round count accepted")
	}
	if err := checkSCRounds(want+1, want, want); err == nil {
		t.Fatal("rounds beyond the schedule accepted")
	}
}

func TestCheckerRejectsBadCertificateAndApprox(t *testing.T) {
	if err := certificate(5, 2, big.NewInt(2), big.NewInt(1)); err == nil {
		t.Fatal("w(C) > 2·Σy accepted")
	}
	if err := checkApprox(7, 3, 2); err == nil {
		t.Fatal("w(C) > 2·OPT accepted")
	}
	ins := &vcInst{n: 3, edges: [][2]int32{{0, 1}, {1, 2}}}
	if got := bruteVC(ins, []int64{1, 5, 1}); got != 2 {
		t.Fatalf("bruteVC = %d, want 2", got)
	}
	if got := byeVC(ins, []int64{1, 5, 1}); got != 2 {
		t.Fatalf("byeVC = %d, want 2", got)
	}
	if err := sameCover([]bool{true, false}, []bool{false, true}); err == nil {
		t.Fatal("different covers reported equal")
	}
}
