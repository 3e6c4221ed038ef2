package fracpack

import (
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/check"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// kycOutdegrees computes, for every unsaturated element, its outdegree
// in K_yc: the number of length-2 paths (u, s, v) with v != u where both
// u and v are unsaturated and share the current colour.  Ground truth is
// recomputed from the element programs' packing values.
func kycOutdegrees(ins *bipartite.Instance, elems []*ElemProgram) map[int]int {
	y := make([]rational.Rat, ins.U())
	for u, ep := range elems {
		y[u] = ep.y
	}
	satSubsets := check.SaturatedSubsets(ins, y)
	unsat := make([]bool, ins.U())
	for u := 0; u < ins.U(); u++ {
		unsat[u] = true
		for _, h := range ins.Ports(ins.ElementNode(u)) {
			if satSubsets[h.To] {
				unsat[u] = false
				break
			}
		}
	}
	// Effective colour: the trivial reduction's result is committed at
	// the next iteration boundary, so use cNew when it is set.
	col := func(u int) int {
		if elems[u].cNew != 0 {
			return elems[u].cNew
		}
		return elems[u].c
	}
	out := make(map[int]int)
	for u := 0; u < ins.U(); u++ {
		if !unsat[u] {
			continue
		}
		deg := 0
		for _, h := range ins.Ports(ins.ElementNode(u)) {
			for _, h2 := range ins.Ports(h.To) {
				v := ins.ElementIndex(h2.To)
				if v != u && unsat[v] && col(v) == col(u) {
					deg++
				}
			}
		}
		out[u] = deg
	}
	return out
}

// TestOutdegreeDecreasesEachIteration verifies the Section 4 progress
// argument: every element still unsaturated after an iteration has lost
// at least one outgoing edge of K_yc during it, which is what bounds the
// algorithm by D+1 iterations.
func TestOutdegreeDecreasesEachIteration(t *testing.T) {
	cases := []*bipartite.Instance{
		bipartite.Random(8, 16, 3, 5, 7, 1),
		bipartite.Random(10, 20, 2, 4, 9, 2),
		bipartite.SymmetricKpp(3),
		bipartite.CycleReduction(10, 3),
	}
	for ci, ins := range cases {
		params := sim.BipartiteParams(ins)
		lay := newLayout(params)
		envs := sim.BipartiteEnvs(ins, params)
		progs := make([]sim.BroadcastProgram, ins.N())
		elems := make([]*ElemProgram, ins.U())
		for v := range progs {
			if ins.IsSubset(v) {
				progs[v] = NewSubset(envs[v])
			} else {
				ep := NewElement(envs[v])
				elems[ins.ElementIndex(v)] = ep
				progs[v] = ep
			}
		}
		wrapped := make([]sim.BroadcastProgram, len(progs))
		for i, pr := range progs {
			wrapped[i] = &offsetProg{inner: pr.(program)}
		}
		prev := kycOutdegrees(ins, elems)
		maxOut := 0
		for _, d := range prev {
			if d > maxOut {
				maxOut = d
			}
		}
		if maxOut > lay.D {
			t.Fatalf("case %d: initial outdegree %d exceeds D = %d", ci, maxOut, lay.D)
		}
		for iter := 1; iter <= lay.iters; iter++ {
			for i := range wrapped {
				wrapped[i].(*offsetProg).off = (iter - 1) * lay.perIter
			}
			sim.RunBroadcast(ins, wrapped, lay.perIter, sim.Options{})
			cur := kycOutdegrees(ins, elems)
			for u, d := range cur {
				if before, was := prev[u]; was && d > before-1 {
					t.Errorf("case %d iteration %d: element %d outdegree %d -> %d (must drop)",
						ci, iter, u, before, d)
				}
			}
			prev = cur
		}
		if len(prev) != 0 {
			t.Fatalf("case %d: %d elements still unsaturated after D+1 iterations", ci, len(prev))
		}
	}
}

// TestSaturationIsMonotone: once saturated, an element stays saturated —
// the monotonicity both the algorithm and the lower-bound arguments use.
func TestSaturationIsMonotone(t *testing.T) {
	ins := bipartite.Random(8, 18, 3, 6, 5, 9)
	params := sim.BipartiteParams(ins)
	lay := newLayout(params)
	envs := sim.BipartiteEnvs(ins, params)
	progs := make([]sim.BroadcastProgram, ins.N())
	elems := make([]*ElemProgram, ins.U())
	for v := range progs {
		if ins.IsSubset(v) {
			progs[v] = NewSubset(envs[v])
		} else {
			ep := NewElement(envs[v])
			elems[ins.ElementIndex(v)] = ep
			progs[v] = ep
		}
	}
	wrapped := make([]sim.BroadcastProgram, len(progs))
	for i, pr := range progs {
		wrapped[i] = &offsetProg{inner: pr.(program)}
	}
	everSat := make([]bool, ins.U())
	total := lay.iters * lay.perIter
	for off := 0; off < total; off += lay.perIter {
		for i := range wrapped {
			wrapped[i].(*offsetProg).off = off
		}
		sim.RunBroadcast(ins, wrapped, lay.perIter, sim.Options{})
		for u, ep := range elems {
			if everSat[u] && !ep.saturated {
				t.Fatalf("element %d became unsaturated after iteration at offset %d", u, off)
			}
			if ep.saturated {
				everSat[u] = true
			}
		}
	}
}
