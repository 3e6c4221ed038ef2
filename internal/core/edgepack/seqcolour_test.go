package edgepack

import (
	"math/big"
	"math/rand"
	"testing"

	"anoncover/internal/colour"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// refColour builds the integer a sequence's binary colour stands for:
// the fixed-width (numerator, denominator) fields, element 0 most
// significant.
func refColour(l layout, seq []rational.Rat) *big.Int {
	c := new(big.Int)
	for _, x := range seq {
		c.Lsh(c, uint(l.numBits)).Or(c, x.Num())
		c.Lsh(c, uint(l.denBits)).Or(c, x.Den())
	}
	return c
}

// randElem returns a value within l's fields: on the fast path, or
// promoted when wide is set and the fields allow it.
func randElem(r *rand.Rand, l layout, wide bool) rational.Rat {
	denBits, numBits := 1+r.Intn(min(l.denBits, 62)), 1+r.Intn(min(l.numBits, 62))
	if wide {
		denBits, numBits = 1+r.Intn(l.denBits), 1+r.Intn(l.numBits)
	}
	one := big.NewInt(1)
	den := new(big.Int).Rand(r, new(big.Int).Sub(new(big.Int).Lsh(one, uint(denBits)), one))
	num := new(big.Int).Rand(r, new(big.Int).Lsh(one, uint(numBits)))
	return rational.FromBig(new(big.Rat).SetFrac(num, den.Add(den, one)))
}

// TestSeqColourMatchesReference: orientation order, the local first CV
// step and the root bit agree with the reference big.Int colour fed to
// colour.CVStep/CVRootStep, on fast-path, promoted and mixed sequences,
// including pairs that differ in one late field or one bit.
func TestSeqColourMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, p := range []sim.Params{{Delta: 1, W: 1}, {Delta: 3, W: 9}, {Delta: 6, W: 127}, {Delta: 12, W: 1000}} {
		l := layoutOf(p)
		if got := refColour(l, make([]rational.Rat, l.delta)).BitLen(); got > ColourBitsBound(p) {
			t.Fatalf("Δ=%d: reference colour of zeros has %d bits", p.Delta, got)
		}
		promoted := 0
		for trial := 0; trial < 400; trial++ {
			mode := trial % 3 // 0 fast, 1 promoted where possible, 2 mixed
			seq := func() []rational.Rat {
				s := make([]rational.Rat, l.delta)
				for j := range s {
					s[j] = randElem(r, l, mode == 1 || (mode == 2 && r.Intn(2) == 0))
					if s[j].IsBig() {
						promoted++
					}
				}
				return s
			}
			own, other := seq(), seq()
			switch trial % 4 {
			case 1: // differ in one late field only
				copy(other, own)
				other[l.delta-1] = randElem(r, l, mode != 0)
			case 2: // share every field; the last element's denominator differs in one bit
				copy(other, own)
				last := own[l.delta-1]
				den := new(big.Int).Xor(last.Den(), new(big.Int).Lsh(big.NewInt(1), uint(r.Intn(last.Den().BitLen()))))
				if den.Sign() == 0 {
					den.SetInt64(1)
				}
				other[l.delta-1] = rational.FromBig(new(big.Rat).SetFrac(last.Num(), den))
			case 3: // zero and one, as a zero-weight or saturated node offers
				own[0], other[0] = rational.Zero, rational.One
			}
			ro, rp := refColour(l, own), refColour(l, other)
			if ro.BitLen() > ColourBitsBound(p) || rp.BitLen() > ColourBitsBound(p) {
				t.Fatalf("reference colour wider than ColourBitsBound %d", ColourBitsBound(p))
			}
			if got, want := l.cmp(own, other), ro.Cmp(rp); got != want {
				t.Fatalf("Δ=%d: cmp(%v, %v) = %d, reference %d", p.Delta, own, other, got, want)
			}
			if got, want := l.cvRootStep(own), colour.CVRootStep(ro); got != want.Uint64() {
				t.Fatalf("Δ=%d: root step %d, reference %v", p.Delta, got, want)
			}
			if ro.Cmp(rp) == 0 {
				continue
			}
			got, want := l.cvStep(own, other), colour.CVStep(ro, rp)
			if got != want.Uint64() {
				t.Fatalf("Δ=%d: first step %d, reference %v", p.Delta, got, want)
			}
			if got >= uint64(2*ColourBitsBound(p)) {
				t.Fatalf("Δ=%d: first step %d not below 2·bound", p.Delta, got)
			}
		}
		if p.Delta == 12 && promoted == 0 {
			t.Fatal("no promoted element generated; the big-word paths are untested")
		}
	}
}

// TestSeqColourPartOps: field comparison and lowest-differing-bit agree
// with big.Int on word-sized and multi-word values, including pairs of
// equal bit length whose high and low words differ in opposite
// directions.
func TestSeqColourPartOps(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	asPart := func(x *big.Int) part {
		if x.IsUint64() && r.Intn(2) == 0 {
			return part{w: x.Uint64()}
		}
		return part{b: x}
	}
	for i := 0; i < 3000; i++ {
		width := 1 + r.Intn(300)
		top := new(big.Int).Lsh(big.NewInt(1), uint(width-1))
		a := new(big.Int).Rand(r, top)
		b := new(big.Int).Rand(r, top)
		if r.Intn(2) == 0 {
			a.Or(a, top) // same bit length
			b.Or(b, top)
		}
		pa, pb := asPart(a), asPart(b)
		if got, want := cmpPart(pa, pb), a.Cmp(b); got != want {
			t.Fatalf("cmpPart(%v, %v) = %d, want %d", a, b, got, want)
		}
		x := new(big.Int).Xor(a, b)
		lo, ok := lowDiff(pa, pb)
		if ok != (x.Sign() != 0) || (ok && uint(lo) != x.TrailingZeroBits()) {
			t.Fatalf("lowDiff(%v, %v) = %d, %v", a, b, lo, ok)
		}
		if ok && pa.bit(lo) != uint64(a.Bit(lo)) {
			t.Fatalf("bit %d of %v = %d", lo, a, pa.bit(lo))
		}
	}
}

// TestSeqColourFieldOverflowPanics: a value wider than its Lemma 2 field
// (or negative) panics instead of silently overlapping the next field.
func TestSeqColourFieldOverflowPanics(t *testing.T) {
	l := layoutOf(sim.Params{Delta: 3, W: 9})
	wideDen := rational.FromBig(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(l.denBits))))
	wideNum := rational.FromBig(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), uint(l.numBits)), big.NewInt(3)))
	for name, bad := range map[string]rational.Rat{
		"denominator": wideDen, "numerator": wideNum, "negative": rational.FromInt(-1),
	} {
		t.Run(name, func(t *testing.T) {
			seq := []rational.Rat{rational.One, bad, rational.One}
			for op, f := range map[string]func(){
				"cmp":    func() { l.cmp(seq, []rational.Rat{rational.One, rational.One, rational.One}) },
				"cvStep": func() { l.cvStep([]rational.Rat{rational.Zero, rational.One, rational.One}, seq) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted a %s field", op, name)
						}
					}()
					f()
				}()
			}
		})
	}
}

// TestCVRoundsSegment: the schedule's CV segment is the exported count.
// At Δ=12, W=1000 taking the first step locally saves one round over
// running every step on the full-width colours.
func TestCVRoundsSegment(t *testing.T) {
	p := sim.Params{Delta: 12, W: 1000}
	if got := ScheduleFor(p).Total() - 2*12 - 6 - 6*12; got != CVRounds(p) {
		t.Fatalf("schedule CV segment %d, CVRounds %d", got, CVRounds(p))
	}
	if got, full := CVRounds(p), colour.CVRounds(ColourBitsBound(p)); got != 4 || full != 5 {
		t.Fatalf("CVRounds(Δ=12, W=1000) = %d, want 4 (full-width colours: %d, want 5)", got, full)
	}
	if got := Rounds(p); got != 106 {
		t.Fatalf("Rounds(Δ=12, W=1000) = %d, want 106", got)
	}
}

// pinnedProgram checks after every Recv that the incremental residual
// equals w − Σy recomputed from scratch, in value and representation,
// and counts the checks that met a promoted value.
type pinnedProgram struct {
	*Program
	t                 *testing.T
	checked, promoted *int
}

func (p pinnedProgram) Recv(round int, msgs []sim.Message) {
	p.Program.Recv(round, msgs)
	want := p.w.Sub(rational.Sum(p.y...))
	got := p.r
	gn, gd, gok := got.Raw()
	wn, wd, wok := want.Raw()
	if !got.Equal(want) || gok != wok || gn != wn || gd != wd || got.IsBig() != want.IsBig() {
		p.t.Fatalf("round %d: residual %v (raw %d/%d %v), recomputed %v (raw %d/%d %v)",
			round, got, gn, gd, gok, want, wn, wd, wok)
	}
	*p.checked++
	prom := want.IsBig()
	for _, y := range p.y {
		prom = prom || y.IsBig()
	}
	if prom {
		*p.promoted++
	}
}

// TestResidualIncremental pins the residual on the Δ=12, W=1000
// power-law instance (promoted values included), with two zero-weight
// nodes.
func TestResidualIncremental(t *testing.T) {
	g := graph.PowerLawBounded(300, 3, 12, 4)
	graph.RandomWeights(g, 1000, 5)
	params := sim.Params{Delta: 12, W: 1000}
	envs := sim.GraphEnvs(g, params)
	envs[0].Weight, envs[7].Weight = 0, 0
	progs := make([]sim.PortProgram, g.N())
	checked, promoted := 0, 0
	for v := range progs {
		progs[v] = pinnedProgram{Program: New(envs[v]), t: t, checked: &checked, promoted: &promoted}
	}
	// NoWire: the wrapper's Recv is the boxed path's.
	if _, err := sim.RunPort(g, progs, Rounds(params), sim.Options{Engine: sim.Sequential, NoWire: true}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 || promoted == 0 {
		t.Fatalf("%d updates checked, %d with promoted values; want both > 0", checked, promoted)
	}
	for _, v := range []int{0, 7} {
		if pp := progs[v].(pinnedProgram); pp.rPos || !pp.r.IsZero() {
			t.Fatalf("zero-weight node %d ends with residual %v", v, pp.r)
		}
	}
}
