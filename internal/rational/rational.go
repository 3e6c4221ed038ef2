// Package rational implements exact rational arithmetic for the packing
// algorithms of Åstrand & Suomela (SPAA 2010).
//
// The algorithms repeatedly form quantities such as x(v) = r(v)/deg(v) and
// y(e) += min{x(u), x(v)}; Lemma 2 of the paper shows all intermediate
// values are rationals whose scaled numerators stay integral.  Floating
// point is not an option: saturation tests (y[v] == w_v) must be exact, and
// the colour construction requires injective encodings of the values.
//
// Rat keeps a normalized int64 numerator/denominator fast path and promotes
// transparently to math/big when an operation would overflow.  Values are
// immutable: every operation returns a new Rat, and any shared *big.Rat is
// never mutated after creation.
package rational

import (
	"math"
	"math/big"
	"math/bits"
)

// Rat is an immutable exact rational number.
//
// The zero value is the number 0 and is ready to use.
type Rat struct {
	// Fast path, valid when b == nil: the value is n/d with d >= 0 and
	// gcd(|n|, d) == 1.  d == 0 encodes the denominator 1, so that the
	// zero value of the struct represents the number 0.
	n, d int64
	// Slow path: when b != nil it holds the value and n, d are ignored.
	// The pointed-to big.Rat is treated as immutable.
	b *big.Rat
}

// Common constants.
var (
	Zero = Rat{}
	One  = Rat{n: 1, d: 1}
)

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n: n, d: 1} }

// FromFrac returns the rational n/d in lowest terms.  It panics if d == 0.
func FromFrac(n, d int64) Rat {
	if d == 0 {
		panic("rational: zero denominator")
	}
	if r, ok := tryNorm(n, d); ok {
		return r
	}
	return fromBig(new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d)))
}

// FromBig returns a Rat with the value of r.  The argument is copied.
func FromBig(r *big.Rat) Rat { return fromBig(new(big.Rat).Set(r)) }

// fromBig adopts r (which must already be normalized, as big.Rat always
// is), demoting to the fast path when the value fits in int64.  Zero
// demotes to the zero value, exactly as tryNorm returns it, so a result's
// representation never depends on which path computed it.
func fromBig(r *big.Rat) Rat {
	if r.Sign() == 0 {
		return Zero
	}
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		return Rat{n: r.Num().Int64(), d: r.Denom().Int64()}
	}
	return Rat{b: r}
}

// num and den read the fast-path representation, decoding the zero value.
func (x Rat) num() int64 { return x.n }
func (x Rat) den() int64 {
	if x.d == 0 {
		return 1
	}
	return x.d
}

// big returns the value as a big.Rat.  The result is freshly allocated for
// fast-path values; for big values it returns the shared immutable pointer,
// so callers must not mutate it.
func (x Rat) asBig() *big.Rat {
	if x.b != nil {
		return x.b
	}
	return new(big.Rat).SetFrac64(x.num(), x.den())
}

// Big returns a copy of the value as a *big.Rat.  The caller owns it.
func (x Rat) Big() *big.Rat { return new(big.Rat).Set(x.asBig()) }

// Num returns a copy of the numerator (negative iff the value is negative).
func (x Rat) Num() *big.Int { return new(big.Int).Set(x.asBig().Num()) }

// Den returns a copy of the denominator (always positive).
func (x Rat) Den() *big.Int { return new(big.Int).Set(x.asBig().Denom()) }

// IsBig reports whether the value is currently held in the big (promoted)
// representation.  Exposed for the representation ablation benchmarks.
func (x Rat) IsBig() bool { return x.b != nil }

// absU returns |x| as a uint64, correct for math.MinInt64.
func absU(x int64) uint64 {
	if x >= 0 {
		return uint64(x)
	}
	return uint64(^x) + 1
}

// gcdU is Euclid's algorithm on uint64.
func gcdU(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// tryNorm normalizes n/d into a fast-path Rat.  It reports false when the
// normalized value cannot be represented (MinInt64 edge cases).
func tryNorm(n, d int64) (Rat, bool) {
	if n == 0 {
		return Zero, true
	}
	neg := (n < 0) != (d < 0)
	un, ud := absU(n), absU(d)
	g := gcdU(un, ud)
	un /= g
	ud /= g
	if ud > math.MaxInt64 || un > math.MaxInt64 {
		// |MinInt64| survives only if it is the numerator of a
		// positive value; keep the representation symmetric and
		// simply promote instead.
		return Zero, false
	}
	in, id := int64(un), int64(ud)
	if neg {
		in = -in
	}
	return Rat{n: in, d: id}, true
}

// addOvf returns a+b, reporting overflow.
func addOvf(a, b int64) (int64, bool) {
	c := a + b
	if (a > 0 && b > 0 && c < 0) || (a < 0 && b < 0 && c >= 0) {
		return 0, false
	}
	return c, true
}

// mulOvf returns a*b, reporting overflow.
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	if c/b != a {
		return 0, false
	}
	return c, true
}

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	if x.b == nil && y.b == nil {
		if ad, ok1 := mulOvf(x.num(), y.den()); ok1 {
			if bc, ok2 := mulOvf(y.num(), x.den()); ok2 {
				if s, ok3 := addOvf(ad, bc); ok3 {
					if d, ok4 := mulOvf(x.den(), y.den()); ok4 {
						if r, ok := tryNorm(s, d); ok {
							return r
						}
					}
				}
			}
		}
	}
	return fromBig(new(big.Rat).Add(x.asBig(), y.asBig()))
}

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat { return x.Add(y.Neg()) }

// Neg returns -x.
func (x Rat) Neg() Rat {
	if x.b == nil {
		if x.n != math.MinInt64 {
			return Rat{n: -x.n, d: x.d}
		}
	}
	return fromBig(new(big.Rat).Neg(x.asBig()))
}

// Mul returns x * y.
func (x Rat) Mul(y Rat) Rat {
	if x.b == nil && y.b == nil {
		if n, ok1 := mulOvf(x.num(), y.num()); ok1 {
			if d, ok2 := mulOvf(x.den(), y.den()); ok2 {
				if r, ok := tryNorm(n, d); ok {
					return r
				}
			}
		}
	}
	return fromBig(new(big.Rat).Mul(x.asBig(), y.asBig()))
}

// Div returns x / y.  It panics if y is zero.
func (x Rat) Div(y Rat) Rat {
	if y.IsZero() {
		panic("rational: division by zero")
	}
	return x.Mul(y.Inv())
}

// Inv returns 1/x.  It panics if x is zero.
func (x Rat) Inv() Rat {
	if x.IsZero() {
		panic("rational: inverse of zero")
	}
	if x.b == nil {
		n, d := x.num(), x.den()
		if n > 0 {
			return Rat{n: d, d: n}
		}
		if n != math.MinInt64 {
			return Rat{n: -d, d: -n}
		}
	}
	return fromBig(new(big.Rat).Inv(x.asBig()))
}

// MulInt returns x * k.
func (x Rat) MulInt(k int64) Rat { return x.Mul(FromInt(k)) }

// DivInt returns x / k.  It panics if k == 0.
func (x Rat) DivInt(k int64) Rat {
	if k == 0 {
		panic("rational: division by zero")
	}
	return x.Mul(FromFrac(1, k))
}

// Sign returns -1, 0 or +1 according to the sign of x.
func (x Rat) Sign() int {
	if x.b != nil {
		return x.b.Sign()
	}
	switch {
	case x.n > 0:
		return 1
	case x.n < 0:
		return -1
	}
	return 0
}

// IsZero reports whether x == 0.
func (x Rat) IsZero() bool { return x.Sign() == 0 }

// Cmp compares x and y, returning -1, 0 or +1.
func (x Rat) Cmp(y Rat) int {
	if x.b == nil && y.b == nil {
		if ad, ok1 := mulOvf(x.num(), y.den()); ok1 {
			if bc, ok2 := mulOvf(y.num(), x.den()); ok2 {
				switch {
				case ad < bc:
					return -1
				case ad > bc:
					return 1
				}
				return 0
			}
		}
	}
	return x.asBig().Cmp(y.asBig())
}

// Equal reports whether x == y.
func (x Rat) Equal(y Rat) bool { return x.Cmp(y) == 0 }

// Less reports whether x < y.
func (x Rat) Less(y Rat) bool { return x.Cmp(y) < 0 }

// Min returns the smaller of x and y.
func Min(x, y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func Max(x, y Rat) Rat {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// Sum returns the sum of xs, or 0 for an empty argument list.
func Sum(xs ...Rat) Rat {
	s := Zero
	for _, x := range xs {
		s = s.Add(x)
	}
	return s
}

// IsInt reports whether x is an integer.
func (x Rat) IsInt() bool {
	if x.b != nil {
		return x.b.IsInt()
	}
	return x.den() == 1
}

// Int64 returns the value as an int64 when it is an integer fitting int64.
func (x Rat) Int64() (int64, bool) {
	if x.b != nil {
		if x.b.IsInt() && x.b.Num().IsInt64() {
			return x.b.Num().Int64(), true
		}
		return 0, false
	}
	if x.den() == 1 {
		return x.num(), true
	}
	return 0, false
}

// Float64 returns the nearest float64 approximation of x.
func (x Rat) Float64() float64 {
	f, _ := x.asBig().Float64()
	return f
}

// WireBytes estimates the serialized size of x in bytes (numerator and
// denominator bit lengths, byte-rounded, plus framing).  Used by the
// message-complexity experiments.  The fast-path branch avoids
// materializing a big.Rat: it is called once per delivered message on
// the simulator's accounting path.
func (x Rat) WireBytes() int {
	if x.b == nil {
		return (bits.Len64(absU(x.n))+bits.Len64(uint64(x.den())))/8 + 2
	}
	return (x.b.Num().BitLen()+x.b.Denom().BitLen())/8 + 2
}

// Raw exposes the fast-path representation (n, d) of x, with d == 0
// encoding the denominator 1 exactly as the struct does.  ok is false
// when the value is held in the promoted big representation and has no
// raw form.  Raw/FromRaw exist for the simulator's fixed-width wire
// encoding: a (n, d) pair moved over the wire and rebuilt with FromRaw
// is bit-identical to the original value, including its representation.
func (x Rat) Raw() (n, d int64, ok bool) {
	if x.b != nil {
		return 0, 0, false
	}
	return x.n, x.d, true
}

// Parts exposes the value's numerator and denominator without copying.
// For a fast-path value it returns them as n and d (d >= 1) with nil
// big parts; for a promoted value it returns bn and bd, the shared
// big.Ints inside the value, which the caller must only read.  The
// colour construction reads sequences of values through it.
func (x Rat) Parts() (n, d int64, bn, bd *big.Int) {
	if x.b != nil {
		return 0, 0, x.b.Num(), x.b.Denom()
	}
	return x.n, x.den(), nil, nil
}

// FromRaw rebuilds a Rat from a representation produced by Raw.  The
// pair must come from Raw (normalized, d >= 0, d == 0 meaning 1):
// FromRaw performs no normalization of its own.
func FromRaw(n, d int64) Rat { return Rat{n: n, d: d} }

// String formats x as "n" or "n/d".
func (x Rat) String() string {
	if x.b != nil {
		if x.b.IsInt() {
			return x.b.Num().String()
		}
		return x.b.String()
	}
	if x.den() == 1 {
		return big.NewInt(x.num()).String()
	}
	return new(big.Rat).SetFrac64(x.num(), x.den()).String()
}
