// Package check verifies the structural invariants of the paper's
// objects: edge packings (Section 1.1), fractional packings (Section 1.2),
// the covers they induce, and the LP-duality ratio certificates that bound
// approximation quality without knowing the optimum.
package check

import (
	"fmt"

	"anoncover/internal/bipartite"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
)

// EdgeLoads returns y[v] = Σ_{e ∋ v} y(e) for every node.
func EdgeLoads(g *graph.G, y []rational.Rat) []rational.Rat {
	loads := make([]rational.Rat, g.N())
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		loads[u] = loads[u].Add(y[e])
		loads[v] = loads[v].Add(y[e])
	}
	return loads
}

// EdgePackingFeasible verifies y >= 0 and y[v] <= w_v for all v.
func EdgePackingFeasible(g *graph.G, y []rational.Rat) error {
	_, err := edgeFeasibleLoads(g, y)
	return err
}

// edgeFeasibleLoads checks feasibility and returns the edge loads it
// computed on the way, so callers that go on to test saturation do not
// sum them again.
func edgeFeasibleLoads(g *graph.G, y []rational.Rat) ([]rational.Rat, error) {
	if len(y) != g.M() {
		return nil, fmt.Errorf("check: %d edge values for %d edges", len(y), g.M())
	}
	for e, ye := range y {
		if ye.Sign() < 0 {
			return nil, fmt.Errorf("check: y(%d) = %v negative", e, ye)
		}
	}
	loads := EdgeLoads(g, y)
	for v, load := range loads {
		if load.Cmp(rational.FromInt(g.Weight(v))) > 0 {
			return nil, fmt.Errorf("check: node %d overpacked: y[v] = %v > w = %d", v, load, g.Weight(v))
		}
	}
	return loads, nil
}

// SaturatedNodes returns the set C(y) of nodes with y[v] == w_v.
func SaturatedNodes(g *graph.G, y []rational.Rat) []bool {
	return saturatedNodes(g, EdgeLoads(g, y))
}

func saturatedNodes(g *graph.G, loads []rational.Rat) []bool {
	sat := make([]bool, g.N())
	for v, load := range loads {
		sat[v] = load.Equal(rational.FromInt(g.Weight(v)))
	}
	return sat
}

// EdgePackingMaximal verifies that y is feasible and every edge is
// saturated: at least one endpoint of each edge has y[v] == w_v.
func EdgePackingMaximal(g *graph.G, y []rational.Rat) error {
	loads, err := edgeFeasibleLoads(g, y)
	if err != nil {
		return err
	}
	return edgesSaturated(g, saturatedNodes(g, loads))
}

func edgesSaturated(g *graph.G, sat []bool) error {
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if !sat[u] && !sat[v] {
			return fmt.Errorf("check: edge %d {%d,%d} unsaturated", e, u, v)
		}
	}
	return nil
}

// VCResult verifies a vertex-cover answer against every invariant of
// Section 3 with one computation of the edge loads: y is a feasible
// and maximal edge packing, c is exactly the set C(y) of saturated
// nodes, and the duality certificate w(C) <= 2·Σ_e y(e) holds.
func VCResult(g *graph.G, y []rational.Rat, c []bool) error {
	loads, err := edgeFeasibleLoads(g, y)
	if err != nil {
		return err
	}
	if len(c) != g.N() {
		return fmt.Errorf("check: cover length %d for %d nodes", len(c), g.N())
	}
	sat := saturatedNodes(g, loads)
	for v := range sat {
		if c[v] != sat[v] {
			return fmt.Errorf("check: node %d: in cover %v but saturated %v (y[v] = %v, w = %d)",
				v, c[v], sat[v], loads[v], g.Weight(v))
		}
	}
	if err := edgesSaturated(g, sat); err != nil {
		return err
	}
	return vcCertificate(g, y, c)
}

// VertexCover verifies that c covers every edge.
func VertexCover(g *graph.G, c []bool) error {
	if len(c) != g.N() {
		return fmt.Errorf("check: cover length %d for %d nodes", len(c), g.N())
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if !c[u] && !c[v] {
			return fmt.Errorf("check: edge %d {%d,%d} uncovered", e, u, v)
		}
	}
	return nil
}

// CoverWeight returns the total weight of the marked nodes.
func CoverWeight(g *graph.G, c []bool) int64 {
	var w int64
	for v, in := range c {
		if in {
			w += g.Weight(v)
		}
	}
	return w
}

// VCDualityCertificate verifies the Bar-Yehuda–Even certificate
// w(C) <= 2 Σ_e y(e).  Together with feasibility (Σ_e y(e) <= OPT by LP
// weak duality) this proves C is a 2-approximation without computing OPT.
func VCDualityCertificate(g *graph.G, y []rational.Rat, c []bool) error {
	if err := EdgePackingFeasible(g, y); err != nil {
		return err
	}
	if err := VertexCover(g, c); err != nil {
		return err
	}
	return vcCertificate(g, y, c)
}

func vcCertificate(g *graph.G, y []rational.Rat, c []bool) error {
	bound := rational.Sum(y...).MulInt(2)
	w := rational.FromInt(CoverWeight(g, c))
	if w.Cmp(bound) > 0 {
		return fmt.Errorf("check: certificate fails: w(C) = %v > 2·Σy = %v", w, bound)
	}
	return nil
}

// SubsetLoads returns y[s] = Σ_{u ∈ N(s)} y(u) for every subset node.
func SubsetLoads(ins *bipartite.Instance, y []rational.Rat) []rational.Rat {
	loads := make([]rational.Rat, ins.S())
	for e := 0; e < ins.M(); e++ {
		s, u := ins.Endpoints(e)
		loads[s] = loads[s].Add(y[u])
	}
	return loads
}

// FracPackingFeasible verifies y >= 0 (per element) and y[s] <= w_s.
func FracPackingFeasible(ins *bipartite.Instance, y []rational.Rat) error {
	_, err := fracFeasibleLoads(ins, y)
	return err
}

// fracFeasibleLoads checks feasibility and returns the subset loads it
// computed on the way.
func fracFeasibleLoads(ins *bipartite.Instance, y []rational.Rat) ([]rational.Rat, error) {
	if len(y) != ins.U() {
		return nil, fmt.Errorf("check: %d element values for %d elements", len(y), ins.U())
	}
	for u, yu := range y {
		if yu.Sign() < 0 {
			return nil, fmt.Errorf("check: y(%d) = %v negative", u, yu)
		}
	}
	loads := SubsetLoads(ins, y)
	for s, load := range loads {
		if load.Cmp(rational.FromInt(ins.Weight(s))) > 0 {
			return nil, fmt.Errorf("check: subset %d overpacked: y[s] = %v > w = %d", s, load, ins.Weight(s))
		}
	}
	return loads, nil
}

// SaturatedSubsets returns the set C(y) of subsets with y[s] == w_s.
func SaturatedSubsets(ins *bipartite.Instance, y []rational.Rat) []bool {
	return saturatedSubsets(ins, SubsetLoads(ins, y))
}

func saturatedSubsets(ins *bipartite.Instance, loads []rational.Rat) []bool {
	sat := make([]bool, ins.S())
	for s, load := range loads {
		sat[s] = load.Equal(rational.FromInt(ins.Weight(s)))
	}
	return sat
}

// FracPackingMaximal verifies that y is feasible and every element is
// saturated, i.e. adjacent to a saturated subset.  Elements with no
// adjacent subset make the packing LP unbounded and are reported as
// errors.
func FracPackingMaximal(ins *bipartite.Instance, y []rational.Rat) error {
	loads, err := fracFeasibleLoads(ins, y)
	if err != nil {
		return err
	}
	sat := saturatedSubsets(ins, loads)
	for v := ins.S(); v < ins.N(); v++ {
		if ins.Deg(v) == 0 {
			return fmt.Errorf("check: element %d has no subsets", ins.ElementIndex(v))
		}
		ok := false
		for _, h := range ins.Ports(v) {
			if sat[h.To] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("check: element %d unsaturated", ins.ElementIndex(v))
		}
	}
	return nil
}

// SetCover verifies that cover covers every element.
func SetCover(ins *bipartite.Instance, cover []bool) error {
	if len(cover) != ins.S() {
		return fmt.Errorf("check: cover length %d for %d subsets", len(cover), ins.S())
	}
	if !ins.IsCover(cover) {
		return fmt.Errorf("check: not a set cover")
	}
	return nil
}

// SCDualityCertificate verifies w(C) <= f · Σ_u y(u), the f-approximation
// certificate of Section 1.2.
func SCDualityCertificate(ins *bipartite.Instance, y []rational.Rat, cover []bool, f int) error {
	if err := FracPackingFeasible(ins, y); err != nil {
		return err
	}
	return scCoverCertificate(ins, y, cover, f)
}

// SCResult verifies a set-cover answer with one computation of the
// subset loads: y is a feasible and maximal fractional packing, cover
// covers every element, and w(C) <= f·Σ_u y(u).
func SCResult(ins *bipartite.Instance, y []rational.Rat, cover []bool, f int) error {
	if err := FracPackingMaximal(ins, y); err != nil {
		return err
	}
	return scCoverCertificate(ins, y, cover, f)
}

func scCoverCertificate(ins *bipartite.Instance, y []rational.Rat, cover []bool, f int) error {
	if err := SetCover(ins, cover); err != nil {
		return err
	}
	bound := rational.Sum(y...).MulInt(int64(f))
	w := rational.FromInt(ins.CoverWeight(cover))
	if w.Cmp(bound) > 0 {
		return fmt.Errorf("check: certificate fails: w(C) = %v > f·Σy = %v", w, bound)
	}
	return nil
}
