package main

import (
	"fmt"
	"math/big"
)

// The independent output checker.  It re-derives every guarantee from
// the benchmark's own copy of the instance with exact arithmetic on the
// big.Rat packing values and shares no code with the repository's
// internal/check.

// checkVCCover checks that cover (one flag per node) covers every edge
// of g and that weight is the sum of w over the cover.
func checkVCCover(g *vcInst, w []int64, cover []bool, weight int64) error {
	if len(cover) != g.n {
		return fmt.Errorf("cover has %d flags for %d nodes", len(cover), g.n)
	}
	for e, uv := range g.edges {
		if !cover[uv[0]] && !cover[uv[1]] {
			return fmt.Errorf("edge %d (%d,%d) is not covered", e, uv[0], uv[1])
		}
	}
	if got := coverWeight(w, cover); got != weight {
		return fmt.Errorf("reported weight %d, cover weighs %d", weight, got)
	}
	return nil
}

// checkVCPacking checks that y (one value per edge, in edge order) is a
// feasible edge packing, that the saturated nodes are exactly the
// cover, that the packing is maximal (every edge has a saturated
// endpoint) and that w(C) <= 2·Σy.
func checkVCPacking(g *vcInst, w []int64, cover []bool, y []*big.Rat) error {
	if len(y) != len(g.edges) {
		return fmt.Errorf("packing has %d values for %d edges", len(y), len(g.edges))
	}
	num, den, err := overCommonDenom(y, "edge")
	if err != nil {
		return err
	}
	load := make([]big.Int, g.n)
	var sum big.Int
	for e, uv := range g.edges {
		load[uv[0]].Add(&load[uv[0]], &num[e])
		load[uv[1]].Add(&load[uv[1]], &num[e])
		sum.Add(&sum, &num[e])
	}
	sat, err := saturation(load, den, w, "node")
	if err != nil {
		return err
	}
	for v := range sat {
		if sat[v] != cover[v] {
			return fmt.Errorf("node %d: saturated=%v but in cover=%v", v, sat[v], cover[v])
		}
	}
	for e, uv := range g.edges {
		if !sat[uv[0]] && !sat[uv[1]] {
			return fmt.Errorf("packing is not maximal: edge %d (%d,%d) has no saturated endpoint", e, uv[0], uv[1])
		}
	}
	return certificate(coverWeight(w, cover), 2, &sum, den)
}

// checkSCCover checks that cover (one flag per subset) covers every
// element and that weight is the sum of w over the cover.
func checkSCCover(ins *scInst, w []int64, cover []bool, weight int64) error {
	if len(cover) != ins.s {
		return fmt.Errorf("cover has %d flags for %d subsets", len(cover), ins.s)
	}
	covered := make([]bool, ins.u)
	for _, p := range ins.pairs {
		if cover[p[0]] {
			covered[p[1]] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("element %d is not covered", e)
		}
	}
	if got := coverWeight(w, cover); got != weight {
		return fmt.Errorf("reported weight %d, cover weighs %d", weight, got)
	}
	return nil
}

// checkSCPacking checks that y (one value per element) is a feasible
// fractional packing, that the saturated subsets are exactly the
// cover, that every element lies in a saturated subset, and that
// w(C) <= f·Σy.
func checkSCPacking(ins *scInst, w []int64, cover []bool, y []*big.Rat, f int) error {
	if len(y) != ins.u {
		return fmt.Errorf("packing has %d values for %d elements", len(y), ins.u)
	}
	num, den, err := overCommonDenom(y, "element")
	if err != nil {
		return err
	}
	var sum big.Int
	for e := range num {
		sum.Add(&sum, &num[e])
	}
	load := make([]big.Int, ins.s)
	for _, p := range ins.pairs {
		load[p[0]].Add(&load[p[0]], &num[p[1]])
	}
	sat, err := saturation(load, den, w, "subset")
	if err != nil {
		return err
	}
	for i := range sat {
		if sat[i] != cover[i] {
			return fmt.Errorf("subset %d: saturated=%v but in cover=%v", i, sat[i], cover[i])
		}
	}
	inSat := make([]bool, ins.u)
	for _, p := range ins.pairs {
		if sat[p[0]] {
			inSat[p[1]] = true
		}
	}
	for e, ok := range inSat {
		if !ok {
			return fmt.Errorf("packing is not maximal: element %d lies in no saturated subset", e)
		}
	}
	return certificate(coverWeight(w, cover), f, &sum, den)
}

// overCommonDenom writes every packing value over the values' least
// common denominator: y[i] = num[i]/den.  Sums and comparisons are then
// exact integer arithmetic, which is far cheaper than adding big.Rats
// with unrelated denominators.
func overCommonDenom(y []*big.Rat, what string) ([]big.Int, *big.Int, error) {
	den := big.NewInt(1)
	var g, q big.Int
	for i, v := range y {
		if v == nil || v.Sign() < 0 {
			return nil, nil, fmt.Errorf("%s %d has packing value %v", what, i, v)
		}
		d := v.Denom()
		g.GCD(nil, nil, den, d)
		q.Quo(d, &g)
		den.Mul(den, &q)
	}
	num := make([]big.Int, len(y))
	for i, v := range y {
		q.Quo(den, v.Denom())
		num[i].Mul(v.Num(), &q)
	}
	return num, den, nil
}

// saturation compares every load (over den) with its weight: a load
// above the weight is infeasible, an equal one saturates.
func saturation(load []big.Int, den *big.Int, w []int64, what string) ([]bool, error) {
	sat := make([]bool, len(load))
	var wd big.Int
	for i := range load {
		wd.Mul(wd.SetInt64(w[i]), den)
		switch load[i].Cmp(&wd) {
		case 1:
			return nil, fmt.Errorf("packing is infeasible: %s %d carries %s > weight %d",
				what, i, new(big.Rat).SetFrac(&load[i], den).RatString(), w[i])
		case 0:
			sat[i] = true
		}
	}
	return sat, nil
}

// certificate checks the duality bound w(C) <= factor·Σy, with Σy =
// sum/den.
func certificate(wc int64, factor int, sum, den *big.Int) error {
	lhs := new(big.Int).Mul(big.NewInt(wc), den)
	rhs := new(big.Int).Mul(big.NewInt(int64(factor)), sum)
	if lhs.Cmp(rhs) > 0 {
		return fmt.Errorf("certificate fails: w(C)=%d > %d·Σy=%s", wc, factor, new(big.Rat).SetFrac(rhs, den).RatString())
	}
	return nil
}

// checkRounds checks a run's round count against the paper's schedule.
func checkRounds(got, want int) error {
	if got != want {
		return fmt.Errorf("ran %d rounds, the schedule predicts %d", got, want)
	}
	return nil
}

// checkSCRounds checks a set-cover run: the scheduled rounds equal the
// prediction and the executed rounds do not exceed it.
func checkSCRounds(rounds, scheduled, want int) error {
	if scheduled != want {
		return fmt.Errorf("scheduled %d rounds, the schedule predicts %d", scheduled, want)
	}
	if rounds > scheduled {
		return fmt.Errorf("ran %d rounds, more than the %d scheduled", rounds, scheduled)
	}
	return nil
}

// sameCover checks a cover against the reference cover computed by the
// library's Sequential engine for the same topology and weights.
func sameCover(got, want []bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("cover has %d flags, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("cover differs from the Sequential reference at %d", i)
		}
	}
	return nil
}

// checkApprox checks w(C) <= factor·OPT.
func checkApprox(wc, opt int64, factor int) error {
	if wc > int64(factor)*opt {
		return fmt.Errorf("w(C)=%d exceeds %d·OPT=%d", wc, factor, int64(factor)*opt)
	}
	return nil
}

func coverWeight(w []int64, cover []bool) int64 {
	var s int64
	for i, in := range cover {
		if in {
			s += w[i]
		}
	}
	return s
}

// indicesToCover turns a list of chosen indices into flags, rejecting
// out-of-range or repeated indices.
func indicesToCover(idx []int, n int) ([]bool, error) {
	cover := make([]bool, n)
	for _, i := range idx {
		if i < 0 || i >= n || cover[i] {
			return nil, fmt.Errorf("bad or repeated cover index %d (n=%d)", i, n)
		}
		cover[i] = true
	}
	return cover, nil
}

// byeVC is the sequential Bar-Yehuda–Even edge packing: each edge in
// turn takes the smaller residual of its endpoints.  The result is a
// feasible packing, so its total is a lower bound on OPT.
func byeVC(g *vcInst, w []int64) int64 {
	res := append([]int64(nil), w...)
	var sum int64
	for _, uv := range g.edges {
		y := min(res[uv[0]], res[uv[1]])
		res[uv[0]] -= y
		res[uv[1]] -= y
		sum += y
	}
	return sum
}

// byeSC is the set-cover analogue: each element in turn takes the
// smallest residual among the subsets containing it.
func byeSC(ins *scInst, w []int64) int64 {
	res := append([]int64(nil), w...)
	members := make([][]int32, ins.u)
	for _, p := range ins.pairs {
		members[p[1]] = append(members[p[1]], p[0])
	}
	var sum int64
	for _, subs := range members {
		if len(subs) == 0 {
			continue
		}
		y := res[subs[0]]
		for _, s := range subs[1:] {
			y = min(y, res[s])
		}
		for _, s := range subs {
			res[s] -= y
		}
		sum += y
	}
	return sum
}

// bruteVC returns the minimum cover weight by enumerating every node
// subset; for the small instance only (n <= 20).
func bruteVC(g *vcInst, w []int64) int64 {
	if g.n > 20 {
		panic("bruteVC: instance too large")
	}
	best := int64(-1)
	for mask := 0; mask < 1<<g.n; mask++ {
		ok := true
		for _, uv := range g.edges {
			if mask&(1<<uv[0]) == 0 && mask&(1<<uv[1]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var s int64
		for v := 0; v < g.n; v++ {
			if mask&(1<<v) != 0 {
				s += w[v]
			}
		}
		if best < 0 || s < best {
			best = s
		}
	}
	return best
}

// bruteSC returns the minimum set-cover weight by enumerating every
// family of subsets; for the small instance only (s <= 20).
func bruteSC(ins *scInst, w []int64) int64 {
	if ins.s > 20 {
		panic("bruteSC: instance too large")
	}
	best := int64(-1)
	covered := make([]bool, ins.u)
	for mask := 0; mask < 1<<ins.s; mask++ {
		clear(covered)
		for _, p := range ins.pairs {
			if mask&(1<<p[0]) != 0 {
				covered[p[1]] = true
			}
		}
		ok := true
		for _, c := range covered {
			ok = ok && c
		}
		if !ok {
			continue
		}
		var s int64
		for i := 0; i < ins.s; i++ {
			if mask&(1<<i) != 0 {
				s += w[i]
			}
		}
		if best < 0 || s < best {
			best = s
		}
	}
	return best
}
