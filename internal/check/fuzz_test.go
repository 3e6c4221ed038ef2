package check

import (
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
)

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

// packValue picks a value for one packing variable whose residual
// capacity is r: zero, r itself, a fraction of r, or r plus a bit
// (which overpacks).  Most inputs thus give feasible packings, many of
// them maximal, with small denominators.
func (b *fuzzBytes) packValue(r rational.Rat) rational.Rat {
	mode, k, d := b.next()%4, int64(b.next()%4), int64(1+b.next()%5)
	switch mode {
	case 0:
		return rational.Zero
	case 1:
		return r
	case 2:
		return r.Mul(rational.FromFrac(k, d))
	default:
		return r.Add(rational.FromFrac(k, d))
	}
}

// flip toggles a few entries of a cover, so some inputs offer a cover
// other than C(y).
func (b *fuzzBytes) flip(c []bool) {
	for i := range c {
		if b.next()%7 == 0 {
			c[i] = !c[i]
		}
	}
}

// FuzzCertificate: whenever the per-node checks VCResult and SCResult
// accept, the global duality certificates accept too.  The local proof
// in the package comment says so; this checks it on small random
// graphs and set systems with small rational packings.
func FuzzCertificate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0xff, 0xff, 0xff, 3, 2, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{4, 0xaa, 0x55, 2, 2, 3, 3, 1, 0, 1, 2, 3, 1, 2, 1, 1, 1, 1, 3, 3, 4, 2, 5, 6})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		vcCase(t, &in)
		scCase(t, &in)
	})
}

func vcCase(t *testing.T, in *fuzzBytes) {
	n := 2 + in.next()%6
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+in.next()%4))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if in.next()%2 == 1 {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	y := make([]rational.Rat, g.M())
	loads := make([]rational.Rat, n)
	for e := range y {
		u, v := g.Endpoints(e)
		r := rational.Min(rational.FromInt(g.Weight(u)).Sub(loads[u]),
			rational.FromInt(g.Weight(v)).Sub(loads[v]))
		y[e] = in.packValue(r)
		loads[u], loads[v] = loads[u].Add(y[e]), loads[v].Add(y[e])
	}
	c := SaturatedNodes(g, y)
	in.flip(c)
	if VCResult(g, y, c) != nil {
		return
	}
	if err := VCDualityCertificate(g, y, c); err != nil {
		t.Fatalf("VCResult accepted, global certificate rejects: %v (y = %v, c = %v)", err, y, c)
	}
}

func scCase(t *testing.T, in *fuzzBytes) {
	ns, nu := 1+in.next()%4, 1+in.next()%5
	b := bipartite.NewBuilder(ns, nu)
	for s := 0; s < ns; s++ {
		b.SetWeight(s, int64(1+in.next()%4))
		for u := 0; u < nu; u++ {
			if in.next()%2 == 1 {
				b.AddEdge(s, u)
			}
		}
	}
	ins := b.Build()
	y := make([]rational.Rat, nu)
	loads := make([]rational.Rat, ns)
	for u := range y {
		r := rational.FromInt(4)
		for _, h := range ins.Ports(ins.ElementNode(u)) {
			r = rational.Min(r, rational.FromInt(ins.Weight(h.To)).Sub(loads[h.To]))
		}
		y[u] = in.packValue(r)
		for _, h := range ins.Ports(ins.ElementNode(u)) {
			loads[h.To] = loads[h.To].Add(y[u])
		}
	}
	cover := SaturatedSubsets(ins, y)
	in.flip(cover)
	f := max(1, ins.MaxF()+in.next()%3-1)
	if SCResult(ins, y, cover, f) != nil {
		return
	}
	if err := SCDualityCertificate(ins, y, cover, f); err != nil {
		t.Fatalf("SCResult accepted, global certificate rejects: %v (y = %v, cover = %v, f = %d)", err, y, cover, f)
	}
}
