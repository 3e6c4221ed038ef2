package rational

import (
	"math"
	"math/big"
	"testing"
)

// FuzzRational: the fast path agrees with math/big.  For operands built
// from arbitrary int64 fractions — and their products with a third
// integer, which promote past int64 — Add, Sub, Mul, Div and Cmp must
// give math/big's value, every result must be held fast exactly when
// its numerator and denominator fit int64, and a fast value must come
// back from Raw/FromRaw as the same struct.  The wire lanes of edge
// packing move rationals as raw pairs and its star rounds add, scale
// and compare them, so both halves matter there.
func FuzzRational(f *testing.F) {
	f.Add(int64(1), int64(2), int64(-3), int64(4), int64(5))
	f.Add(int64(0), int64(1), int64(7), int64(-1), int64(0))
	f.Add(int64(math.MaxInt64), int64(1), int64(math.MinInt64), int64(3), int64(2))
	f.Add(int64(math.MinInt64), int64(-1), int64(1), int64(math.MaxInt64), int64(-1))
	f.Add(int64(1<<40+3), int64(1<<35-1), int64(1<<31), int64(1<<33+5), int64(1<<30))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd, k int64) {
		if ad == 0 || bd == 0 {
			return
		}
		x, y := FromFrac(an, ad), FromFrac(bn, bd)
		bx, by := big.NewRat(an, ad), big.NewRat(bn, bd)
		ops := []Rat{x, y, x.MulInt(k)}
		bigs := []*big.Rat{bx, by, new(big.Rat).Mul(bx, new(big.Rat).SetInt64(k))}
		for i, a := range ops {
			checkRepr(t, a, bigs[i], "operand")
			for j, b := range ops {
				ba, bb := bigs[i], bigs[j]
				checkRepr(t, a.Add(b), new(big.Rat).Add(ba, bb), "Add")
				checkRepr(t, a.Sub(b), new(big.Rat).Sub(ba, bb), "Sub")
				checkRepr(t, a.Mul(b), new(big.Rat).Mul(ba, bb), "Mul")
				if bb.Sign() != 0 {
					checkRepr(t, a.Div(b), new(big.Rat).Quo(ba, bb), "Div")
				}
				if got, want := a.Cmp(b), ba.Cmp(bb); got != want {
					t.Fatalf("Cmp(%v, %v) = %d, math/big %d", a, b, got, want)
				}
			}
		}
	})
}

// checkRepr asserts z has the value want, is held in the representation
// that value calls for, and survives Raw/FromRaw when fast.
func checkRepr(t *testing.T, z Rat, want *big.Rat, op string) {
	t.Helper()
	if z.Big().Cmp(want) != 0 {
		t.Fatalf("%s: got %v, math/big %v", op, z, want)
	}
	fits := want.Num().IsInt64() && want.Denom().IsInt64()
	if z.IsBig() == fits {
		t.Fatalf("%s: %v held big=%v, fits int64=%v", op, z, z.IsBig(), fits)
	}
	n, d, ok := z.Raw()
	if ok == z.IsBig() {
		t.Fatalf("%s: Raw ok=%v for big=%v", op, ok, z.IsBig())
	}
	if ok && FromRaw(n, d) != z {
		t.Fatalf("%s: FromRaw(Raw(%v)) = %v", op, z, FromRaw(n, d))
	}
}
