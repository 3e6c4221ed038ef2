// Package colour provides the symmetry-breaking toolkit used by both
// packing algorithms: iterated-logarithm arithmetic, injective encodings
// of rationals into integer colours (the Lemma 2 construction), the
// Cole–Vishkin colour-reduction step for rooted forests, and the weak
// colour reduction of Section 4.5.
//
// The functions here are the pure, per-node combinational logic; the
// message passing that feeds them lives in the core algorithm packages.
package colour

import (
	"math/big"
	"math/bits"

	"anoncover/internal/rational"
)

// LogStar returns log* n: 0 if n <= 1, else 1 + log*(log2 n).
func LogStar(n float64) int {
	steps := 0
	for n > 1 {
		n = log2(n)
		steps++
	}
	return steps
}

func log2(x float64) float64 {
	// Avoid importing math for one function: frexp by hand is overkill;
	// the iteration count is tiny, so a simple loop bound suffices.
	// x > 1 here.
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	// linear interpolation on [1,2) is accurate enough for log*:
	return l + (x - 1)
}

// LogStarInt returns log* of an integer.
func LogStarInt(n int64) int {
	if n <= 1 {
		return 0
	}
	return LogStar(float64(n))
}

// EncodeRat injectively encodes a rational as a non-negative integer
// colour.  The canonical decimal string "num/den" is interpreted as a
// big-endian byte string; distinct rationals give distinct strings and
// hence distinct colours.  The paper instead scales by (Δ!)^Δ or
// (k!)^((D+1)^2) — an analysis device bounding the same construction.
func EncodeRat(r rational.Rat) *big.Int {
	return new(big.Int).SetBytes([]byte(r.String()))
}

// FactorialBits returns an upper bound on the bit length of k!.
func FactorialBits(k int) int {
	b := 1
	for i := 2; i <= k; i++ {
		b += bits.Len(uint(i))
	}
	return b
}

// decimalDigits bounds the number of decimal digits of a b-bit integer:
// digits <= 0.302*b + 1 <= b/3 + 2.
func decimalDigits(b int) int { return b/3 + 2 }

// BitsBoundRat bounds the bit length of EncodeRat for a rational whose
// numerator has at most numBits bits and denominator at most denBits.
func BitsBoundRat(numBits, denBits int) int {
	// sign + digits + '/' + digits, 8 bits per byte.
	return 8 * (1 + decimalDigits(numBits) + 1 + decimalDigits(denBits))
}

// CVStep performs one Cole–Vishkin reduction step for a node whose
// (virtual) successor currently has colour parent != own: the new colour
// is 2i + b where i is the lowest bit position at which own and parent
// differ and b is own's bit there.  If own != parent then
// CVStep(own, parent) != CVStep(parent, grandparent) for any grandparent
// != parent, and CVStep(own, parent) != CVRootStep(parent).
func CVStep(own, parent *big.Int) *big.Int {
	x := new(big.Int).Xor(own, parent)
	if x.Sign() == 0 {
		panic("colour: CVStep requires own != parent")
	}
	i := int(x.TrailingZeroBits())
	return big.NewInt(int64(2*i) + int64(own.Bit(i)))
}

// CVRootStep is the reduction step for a node with no successor: the new
// colour is own's lowest bit, which differs from every child's new colour.
func CVRootStep(own *big.Int) *big.Int {
	return big.NewInt(int64(own.Bit(0)))
}

// CVStep64 is CVStep on word-sized colours, for callers whose colours
// already fit a uint64 (edge packing after its first, local step).
func CVStep64(own, parent uint64) uint64 {
	x := own ^ parent
	if x == 0 {
		panic("colour: CVStep64 requires own != parent")
	}
	i := bits.TrailingZeros64(x)
	return uint64(2*i) | (own>>uint(i))&1
}

// CVRootStep64 is CVRootStep on a word-sized colour.
func CVRootStep64(own uint64) uint64 { return own & 1 }

// CVRounds returns the number of CVStep iterations guaranteed to reduce
// colours of at most maxBits bits to the range {0..5}.  This is
// O(log* 2^maxBits) and is the schedule all nodes compute from the global
// parameters.
func CVRounds(maxBits int) int {
	steps := 0
	b := maxBits
	// While the value bound 2^b-1 does not fit an int64, one step maps
	// values < 2^b to at most 2(b-1)+1, whose bit length is
	// bits.Len(b-1)+1.
	for b > 62 {
		b = bits.Len(uint(b-1)) + 1
		steps++
	}
	v := int64(1)<<uint(b) - 1
	for v > 5 {
		v = 2*int64(bits.Len64(uint64(v))-1) + 1
		steps++
	}
	return steps
}

// The weak 6-to-4 reduction step.  After CV iterations the weak colouring
// of the DAG B has colours in {0..5}; one more simultaneous step brings it
// to {0..3} while preserving the weak invariant (every node with a
// successor in B keeps a successor of a different colour).
//
// Every old colour t is assigned a pair of disjoint sets Out(t), In(t)
// partitioning {0,1,2,3}, chosen so that Out(a) ∩ In(b) != ∅ for all
// a != b.  A node with old colour a and witness-successor colour b picks
// the smallest colour in Out(a) ∩ In(b); a node with no successor picks
// the smallest colour in Out(a).  Whatever happens elsewhere, a node's
// new colour lies in Out(own old colour), while the new colour of any
// node that had witness colour b lies in In(b); disjointness of Out(b)
// and In(b) therefore keeps every witness edge multicoloured.
//
// The paper asserts a weak 3-colouring at this point without giving the
// final step; we use this provably-correct 4-colour variant (see
// README.md, "Deviations from the paper").
var weakOut = [6]uint8{
	0b0011, // t=0: Out {0,1}
	0b1100, // t=1: Out {2,3}
	0b0101, // t=2: Out {0,2}
	0b1010, // t=3: Out {1,3}
	0b1001, // t=4: Out {0,3}
	0b0110, // t=5: Out {1,2}
}

// weakIn[t] is the complement of weakOut[t] within {0,1,2,3}.
func weakIn(t int) uint8 { return ^weakOut[t] & 0b1111 }

// WeakSixToFour maps a node's old colour own in {0..5} and the common old
// colour ell of its witness successors (or -1 if it has none) to a new
// colour in {0..3}.
func WeakSixToFour(own, ell int) int {
	if own < 0 || own > 5 {
		panic("colour: WeakSixToFour own out of range")
	}
	set := weakOut[own]
	if ell >= 0 {
		if ell > 5 || ell == own {
			panic("colour: WeakSixToFour ell out of range")
		}
		set &= weakIn(ell)
	}
	return int(bits.TrailingZeros8(set))
}
