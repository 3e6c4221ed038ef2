// Phase II colours.  A node's colour is its Phase I element sequence,
// read as one binary integer made of fixed-width fields.  The integer is
// never built: orientation compares two sequences field by field, and
// the first Cole–Vishkin step finds the lowest differing bit the same
// way, so both run on the rationals' own words.

package edgepack

import (
	"fmt"
	"math/big"
	"math/bits"

	"anoncover/internal/colour"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// layout is the binary colour of a Δ-long Phase I sequence.  Element j
// occupies one field: its numerator in the high numBits bits and its
// denominator in the low denBits bits, element 0 in the most
// significant field.  Lemma 2 fixes the widths: every element q has
// 0 <= q <= W and q·(Δ!)^Δ integral, so its denominator divides (Δ!)^Δ
// and its numerator is at most W times the denominator.
type layout struct {
	delta, numBits, denBits int
}

func layoutOf(p sim.Params) layout {
	den := p.Delta * colour.FactorialBits(p.Delta)
	return layout{delta: p.Delta, numBits: bits.Len64(uint64(p.W)) + den, denBits: den}
}

// ColourBitsBound returns the bit length of the Phase I colour,
// Δ·(numBits + denBits).
func ColourBitsBound(p sim.Params) int {
	if p.Delta == 0 {
		return 1
	}
	l := layoutOf(p)
	return l.delta * (l.numBits + l.denBits)
}

// CVRounds returns the length of the schedule's Cole–Vishkin segment.
// Every node takes the first step locally when it orients, so a colour
// entering the segment is 2i + b with i < ColourBitsBound(p): it has at
// most bits.Len(2·ColourBitsBound(p) − 1) bits.
func CVRounds(p sim.Params) int {
	return colour.CVRounds(bits.Len(uint(2*ColourBitsBound(p) - 1)))
}

// part is one field value: w when b is nil, else b, a promoted
// rational's own big.Int, which is only read.
type part struct {
	w uint64
	b *big.Int
}

func (x part) bitLen() int {
	if x.b == nil {
		return bits.Len64(x.w)
	}
	return x.b.BitLen()
}

// word returns bits [64k, 64k+64) of x.
func (x part) word(k int) uint64 {
	if x.b == nil {
		if k == 0 {
			return x.w
		}
		return 0
	}
	ws := x.b.Bits()
	if bits.UintSize == 64 {
		if k < len(ws) {
			return uint64(ws[k])
		}
		return 0
	}
	var v uint64
	for h := 1; h >= 0; h-- {
		if i := 2*k + h; i < len(ws) {
			v |= uint64(ws[i]) << (32 * uint(h))
		}
	}
	return v
}

func (x part) bit(i int) uint64 { return x.word(i/64) >> uint(i%64) & 1 }

// cmpPart compares two field values.
func cmpPart(a, b part) int {
	la, lb := a.bitLen(), b.bitLen()
	if la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	for k := (la - 1) / 64; k >= 0; k-- {
		if wa, wb := a.word(k), b.word(k); wa != wb {
			if wa < wb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// lowDiff returns the lowest bit at which a and b differ.
func lowDiff(a, b part) (int, bool) {
	n := max(a.bitLen(), b.bitLen())
	for k := 0; 64*k < n; k++ {
		if x := a.word(k) ^ b.word(k); x != 0 {
			return 64*k + bits.TrailingZeros64(x), true
		}
	}
	return 0, false
}

// field returns element j's numerator and denominator; every field the
// colour code reads comes through here.  It panics when either is wider
// than its Lemma 2 width (or negative): the fields would overlap, and
// the colour bound, and with it the CV schedule, would not hold.
func (l layout) field(seq []rational.Rat, j int) (num, den part) {
	n, d, bn, bd := seq[j].Parts()
	neg := n < 0
	if bn == nil {
		num, den = part{w: uint64(n)}, part{w: uint64(d)}
	} else {
		num, den, neg = part{b: bn}, part{b: bd}, bn.Sign() < 0
	}
	if neg || num.bitLen() > l.numBits || den.bitLen() > l.denBits {
		panic(fmt.Sprintf("edgepack: Phase I element %v does not fit its Lemma 2 field (%d/%d bits)",
			seq[j], l.numBits, l.denBits))
	}
	return num, den
}

// cmp compares the colours of two sequences, field by field from the
// most significant.
func (l layout) cmp(a, b []rational.Rat) int {
	for j := 0; j < l.delta; j++ {
		an, ad := l.field(a, j)
		bn, bd := l.field(b, j)
		if c := cmpPart(an, bn); c != 0 {
			return c
		}
		if c := cmpPart(ad, bd); c != 0 {
			return c
		}
	}
	return 0
}

// cvStep is colour.CVStep on the two sequences' colours: 2i + own's bit
// i, where i is the lowest bit at which they differ.
func (l layout) cvStep(own, parent []rational.Rat) uint64 {
	for j := l.delta - 1; j >= 0; j-- {
		on, od := l.field(own, j)
		pn, pd := l.field(parent, j)
		base := (l.delta - 1 - j) * (l.numBits + l.denBits)
		if i, ok := lowDiff(od, pd); ok {
			return uint64(2*(base+i)) | od.bit(i)
		}
		if i, ok := lowDiff(on, pn); ok {
			return uint64(2*(base+l.denBits+i)) | on.bit(i)
		}
	}
	panic("edgepack: CV step between equal colours")
}

// cvRootStep is colour.CVRootStep on a sequence's colour: its bit 0, the
// low bit of the last element's denominator.
func (l layout) cvRootStep(own []rational.Rat) uint64 {
	_, den := l.field(own, l.delta-1)
	return den.bit(0)
}
