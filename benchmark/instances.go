package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
)

// The benchmark generates every instance itself from --seed and keeps
// its own copy of the structure, so the checker never trusts the
// program's view of the input.  The program only ever receives the
// instances as text in the repository's formats.

// vcInst is a vertex-cover topology: n nodes and an edge list whose
// order is the edge order (and port order) of the text format.
type vcInst struct {
	n     int
	edges [][2]int32
}

// scInst is a set-cover topology: s subsets, u elements and the
// membership pairs (subset, element) in text-format edge order.
type scInst struct {
	s, u  int
	pairs [][2]int32
}

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// gridInst is the r×c grid; maximum degree 4.
func gridInst(r, c int) *vcInst {
	g := &vcInst{n: r * c}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := int32(i*c + j)
			if j+1 < c {
				g.edges = append(g.edges, [2]int32{v, v + 1})
			}
			if i+1 < r {
				g.edges = append(g.edges, [2]int32{v, v + int32(c)})
			}
		}
	}
	return g
}

// powerLawInst grows a preferential-attachment graph: every new node
// links to up to attach distinct earlier nodes picked in proportion to
// their degree, skipping nodes already at maxDeg.  The first nodes
// become hubs, so the degree cap is reached on graphs of a few hundred
// nodes.
func powerLawInst(rng *rand.Rand, n, attach, maxDeg int) *vcInst {
	g := &vcInst{n: n}
	deg := make([]int, n)
	var ends []int32 // one entry per half-edge: the degree-weighted urn
	link := func(u, v int32) {
		g.edges = append(g.edges, [2]int32{u, v})
		deg[u]++
		deg[v]++
		ends = append(ends, u, v)
	}
	link(0, 1)
	for v := 2; v < n; v++ {
		picked := map[int32]bool{}
		for try := 0; len(picked) < attach && try < 8*attach; try++ {
			u := ends[rng.IntN(len(ends))]
			if u == int32(v) || picked[u] || deg[u] >= maxDeg {
				continue
			}
			picked[u] = true
			link(u, int32(v))
		}
		if len(picked) == 0 {
			// Every sampled endpoint was full: attach to the newest
			// node, which has degree at most attach.
			link(int32(v-1), int32(v))
		}
	}
	return g
}

// randomInst is a random graph with m edges attempted and degrees
// capped at maxDeg, grown on a spanning path so it has no isolated
// nodes.
func randomInst(rng *rand.Rand, n, m, maxDeg int) *vcInst {
	g := &vcInst{n: n}
	deg := make([]int, n)
	seen := map[[2]int32]bool{}
	add := func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int32{u, v}] || deg[u] >= maxDeg || deg[v] >= maxDeg {
			return
		}
		seen[[2]int32{u, v}] = true
		deg[u]++
		deg[v]++
		g.edges = append(g.edges, [2]int32{u, v})
	}
	for v := 1; v < n; v++ {
		add(int32(v-1), int32(v))
	}
	for len(g.edges) < m && len(seen) < 4*m {
		add(int32(rng.IntN(n)), int32(rng.IntN(n)))
	}
	return g
}

// randomSCInst builds a set-cover instance in which every element lies
// in exactly f distinct subsets, drawn uniformly among the subsets that
// still hold fewer than k elements.  Fixing the frequency keeps the
// instance size (u·f memberships) the same for every seed.
func randomSCInst(rng *rand.Rand, s, u, f, k int) *scInst {
	if u*f > s*k {
		panic(fmt.Sprintf("randomSCInst: %d memberships do not fit %d subsets of %d", u*f, s, k))
	}
	ins := &scInst{s: s, u: u}
	size := make([]int, s)
	open := make([]int32, s) // subsets with room, in no particular order
	for i := range open {
		open[i] = int32(i)
	}
	for e := 0; e < u; e++ {
		// Draw f distinct open subsets by a partial shuffle of open.
		n := min(f, len(open))
		for j := 0; j < n; j++ {
			r := j + rng.IntN(len(open)-j)
			open[j], open[r] = open[r], open[j]
			ins.pairs = append(ins.pairs, [2]int32{open[j], int32(e)})
			size[open[j]]++
		}
		for j := 0; j < len(open); {
			if size[open[j]] >= k {
				open[j] = open[len(open)-1]
				open = open[:len(open)-1]
				continue
			}
			j++
		}
	}
	return ins
}

// randWeights draws one weight per node uniformly from [1, maxW] and
// pins one node at maxW, so the instance's W — and with it the round
// schedule — does not depend on the draw.
func randWeights(rng *rand.Rand, n int, maxW int64) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + rng.Int64N(maxW)
	}
	w[rng.IntN(n)] = maxW
	return w
}

func (g *vcInst) maxDeg() int {
	deg := make([]int, g.n)
	best := 0
	for _, e := range g.edges {
		deg[e[0]]++
		deg[e[1]]++
		best = max(best, deg[e[0]], deg[e[1]])
	}
	return best
}

func (ins *scInst) maxF() int {
	freq := make([]int, ins.u)
	best := 0
	for _, p := range ins.pairs {
		freq[p[1]]++
		best = max(best, freq[p[1]])
	}
	return best
}

func (ins *scInst) maxK() int {
	size := make([]int, ins.s)
	best := 0
	for _, p := range ins.pairs {
		size[p[0]]++
		best = max(best, size[p[0]])
	}
	return best
}

func maxWeight(w []int64) int64 {
	var m int64
	for _, x := range w {
		m = max(m, x)
	}
	return m
}

// text renders the graph with weights w in the repository's graph
// format.
func (g *vcInst) text(w []int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "graph %d\n", g.n)
	for v, x := range w {
		fmt.Fprintf(&b, "node %d %d\n", v, x)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "edge %d %d\n", e[0], e[1])
	}
	return b.Bytes()
}

// text renders the instance with subset weights w in the repository's
// set-cover format.
func (ins *scInst) text(w []int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "setcover %d %d\n", ins.s, ins.u)
	for i, x := range w {
		fmt.Fprintf(&b, "subset %d %d\n", i, x)
	}
	for _, p := range ins.pairs {
		fmt.Fprintf(&b, "edge %d %d\n", p[0], p[1])
	}
	return b.Bytes()
}
