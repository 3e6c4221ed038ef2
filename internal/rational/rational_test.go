package rational

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// oracle converts a Rat to a big.Rat through the public accessors only.
func oracle(x Rat) *big.Rat { return x.Big() }

func ratEq(t *testing.T, got Rat, want *big.Rat, op string) {
	t.Helper()
	if oracle(got).Cmp(want) != 0 {
		t.Fatalf("%s: got %v, want %v", op, got, want)
	}
}

func TestZeroValueIsZero(t *testing.T) {
	var x Rat
	if !x.IsZero() {
		t.Fatal("zero value is not the number 0")
	}
	if got := x.Add(FromInt(7)); !got.Equal(FromInt(7)) {
		t.Fatalf("0 + 7 = %v", got)
	}
	if x.String() != "0" {
		t.Fatalf("zero String() = %q", x.String())
	}
	if x.den() != 1 {
		t.Fatalf("zero den() = %d", x.den())
	}
}

func TestFromFrac(t *testing.T) {
	cases := []struct {
		n, d int64
		want string
	}{
		{1, 2, "1/2"},
		{2, 4, "1/2"},
		{-2, 4, "-1/2"},
		{2, -4, "-1/2"},
		{-2, -4, "1/2"},
		{0, 5, "0"},
		{6, 3, "2"},
		{-6, 3, "-2"},
		{math.MinInt64, 1, "-9223372036854775808"},
		{1, math.MinInt64, "-1/9223372036854775808"},
		{math.MinInt64, math.MinInt64, "1"},
		{math.MinInt64, 2, "-4611686018427387904"},
	}
	for _, c := range cases {
		got := FromFrac(c.n, c.d)
		if got.String() != c.want {
			t.Errorf("FromFrac(%d, %d) = %q, want %q", c.n, c.d, got.String(), c.want)
		}
	}
}

func TestFromFracPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero denominator")
		}
	}()
	FromFrac(1, 0)
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for division by zero")
		}
	}()
	FromInt(1).Div(Zero)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for inverse of zero")
		}
	}()
	Zero.Inv()
}

// genRat produces a mix of small, large and promoted rationals.
func genRat(r *rand.Rand) Rat {
	switch r.Intn(5) {
	case 0:
		return FromInt(r.Int63n(21) - 10)
	case 1:
		return FromFrac(r.Int63n(2001)-1000, r.Int63n(1000)+1)
	case 2:
		return FromFrac(r.Int63()-r.Int63(), r.Int63n(math.MaxInt64)+1)
	case 3:
		// Deliberately huge: force the big representation.
		num := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 100))
		den := new(big.Int).Add(new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 80)), big.NewInt(1))
		return FromBig(new(big.Rat).SetFrac(num, den))
	default:
		return FromFrac(math.MaxInt64-r.Int63n(100), math.MaxInt64-r.Int63n(100))
	}
}

func TestArithmeticAgainstBigRatOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x, y := genRat(r), genRat(r)
		bx, by := oracle(x), oracle(y)
		ratEq(t, x.Add(y), new(big.Rat).Add(bx, by), "Add")
		ratEq(t, x.Sub(y), new(big.Rat).Sub(bx, by), "Sub")
		ratEq(t, x.Mul(y), new(big.Rat).Mul(bx, by), "Mul")
		if !y.IsZero() {
			ratEq(t, x.Div(y), new(big.Rat).Quo(bx, by), "Div")
		}
		if got, want := x.Cmp(y), bx.Cmp(by); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", x, y, got, want)
		}
		ratEq(t, x.Neg(), new(big.Rat).Neg(bx), "Neg")
		if !x.IsZero() {
			ratEq(t, x.Inv(), new(big.Rat).Inv(bx), "Inv")
		}
	}
}

func TestOverflowPromotionAndDemotion(t *testing.T) {
	big1 := FromInt(math.MaxInt64)
	sq := big1.Mul(big1)
	if !sq.IsBig() {
		t.Fatal("MaxInt64^2 should be promoted")
	}
	back := sq.Div(big1)
	if back.IsBig() {
		t.Fatal("result fitting int64 should demote")
	}
	if !back.Equal(big1) {
		t.Fatalf("(m*m)/m = %v, want %v", back, big1)
	}
}

func TestMinInt64EdgeCases(t *testing.T) {
	m := FromInt(math.MinInt64)
	if got := m.Neg(); got.Big().Cmp(new(big.Rat).SetInt(new(big.Int).Neg(big.NewInt(math.MinInt64)))) != 0 {
		t.Fatalf("Neg(MinInt64) = %v", got)
	}
	inv := m.Inv()
	want := new(big.Rat).Inv(new(big.Rat).SetInt64(math.MinInt64))
	if inv.Big().Cmp(want) != 0 {
		t.Fatalf("Inv(MinInt64) = %v, want %v", inv, want)
	}
}

func TestAlgebraicProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 1000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(genRat(r))
			}
		},
	}
	commAdd := func(x, y Rat) bool { return x.Add(y).Equal(y.Add(x)) }
	commMul := func(x, y Rat) bool { return x.Mul(y).Equal(y.Mul(x)) }
	assocAdd := func(x, y, z Rat) bool { return x.Add(y).Add(z).Equal(x.Add(y.Add(z))) }
	distrib := func(x, y, z Rat) bool {
		return x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z)))
	}
	negInverse := func(x Rat) bool { return x.Add(x.Neg()).IsZero() }
	for name, f := range map[string]any{
		"add commutes": commAdd, "mul commutes": commMul,
		"add associates": assocAdd, "mul distributes": distrib,
		"x + (-x) == 0": negInverse,
	} {
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMinMaxSum(t *testing.T) {
	a, b := FromFrac(1, 3), FromFrac(1, 2)
	if !Min(a, b).Equal(a) || !Max(a, b).Equal(b) {
		t.Fatal("Min/Max wrong")
	}
	if !Min(b, a).Equal(a) || !Max(b, a).Equal(b) {
		t.Fatal("Min/Max wrong when swapped")
	}
	s := Sum(FromFrac(1, 2), FromFrac(1, 3), FromFrac(1, 6))
	if !s.Equal(One) {
		t.Fatalf("1/2+1/3+1/6 = %v", s)
	}
	if !Sum().IsZero() {
		t.Fatal("empty Sum should be 0")
	}
}

func TestIntAccessors(t *testing.T) {
	x := FromFrac(6, 3)
	if !x.IsInt() {
		t.Fatal("6/3 should be integral")
	}
	if v, ok := x.Int64(); !ok || v != 2 {
		t.Fatalf("Int64 = %d, %v", v, ok)
	}
	y := FromFrac(1, 3)
	if y.IsInt() {
		t.Fatal("1/3 is not integral")
	}
	if _, ok := y.Int64(); ok {
		t.Fatal("Int64 should fail for 1/3")
	}
	huge := FromInt(math.MaxInt64).Mul(FromInt(2))
	if !huge.IsInt() {
		t.Fatal("2*MaxInt64 is integral")
	}
	if _, ok := huge.Int64(); ok {
		t.Fatal("2*MaxInt64 does not fit int64")
	}
}

func TestFloat64(t *testing.T) {
	if got := FromFrac(1, 2).Float64(); got != 0.5 {
		t.Fatalf("Float64(1/2) = %v", got)
	}
	if got := FromFrac(-3, 4).Float64(); got != -0.75 {
		t.Fatalf("Float64(-3/4) = %v", got)
	}
}

func TestMulDivInt(t *testing.T) {
	x := FromFrac(3, 7)
	if got := x.MulInt(14); !got.Equal(FromInt(6)) {
		t.Fatalf("3/7 * 14 = %v", got)
	}
	if got := x.DivInt(3); !got.Equal(FromFrac(1, 7)) {
		t.Fatalf("3/7 / 3 = %v", got)
	}
}

func TestDivIntPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	One.DivInt(0)
}

func TestBigAccessorsAreCopies(t *testing.T) {
	x := FromFrac(2, 3)
	b := x.Big()
	b.SetInt64(99)
	if !x.Equal(FromFrac(2, 3)) {
		t.Fatal("Big() leaked internal state")
	}
	n := x.Num()
	n.SetInt64(99)
	if !x.Equal(FromFrac(2, 3)) {
		t.Fatal("Num() leaked internal state")
	}
}

func TestStringForms(t *testing.T) {
	cases := map[string]Rat{
		"0":    Zero,
		"1":    One,
		"-1/2": FromFrac(1, -2),
		"7":    FromInt(7),
	}
	for want, x := range cases {
		if got := x.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	promoted := FromInt(math.MaxInt64).Mul(FromInt(math.MaxInt64))
	if promoted.String() != "85070591730234615847396907784232501249" {
		t.Errorf("big String() = %q", promoted.String())
	}
}

func TestCmpFastPathNearOverflow(t *testing.T) {
	// Cross products overflow int64; Cmp must fall back to big correctly.
	a := FromFrac(math.MaxInt64-1, math.MaxInt64)
	b := FromFrac(math.MaxInt64-2, math.MaxInt64-1)
	// a = 1 - 1/MaxInt64, b = 1 - 1/(MaxInt64-1), so a > b.
	if a.Cmp(b) != 1 {
		t.Fatalf("Cmp near overflow: got %d, want 1", a.Cmp(b))
	}
}

// TestWireBytesFastPath: the allocation-free fast-path branch of
// WireBytes must agree with the big.Rat formula on every representation
// — the simulator's Stats.Bytes parity across delivery paths depends on
// it — and Raw/FromRaw must round-trip the representation bit for bit.
func TestWireBytesFastPath(t *testing.T) {
	vals := []Rat{
		Zero, One, FromInt(-1), FromInt(127), FromInt(1 << 40),
		FromFrac(3, 7), FromFrac(-355, 113), FromFrac(1, 1<<62),
		FromInt(math.MaxInt64), FromInt(math.MinInt64),
	}
	for _, x := range vals {
		b := x.Big()
		want := (b.Num().BitLen()+b.Denom().BitLen())/8 + 2
		if got := x.WireBytes(); got != want {
			t.Errorf("WireBytes(%v) = %d, want %d", x, got, want)
		}
		n, d, ok := x.Raw()
		if !ok {
			t.Fatalf("fast-path value %v has no raw form", x)
		}
		if y := FromRaw(n, d); y != x {
			t.Errorf("FromRaw(Raw(%v)) = %v, representation not preserved", x, y)
		}
	}
	// Promoted values refuse Raw and take the big branch of WireBytes.
	big := FromFrac(math.MaxInt64, 3).Mul(FromFrac(math.MaxInt64, 5))
	if !big.IsBig() {
		t.Fatal("test value failed to promote")
	}
	if _, _, ok := big.Raw(); ok {
		t.Error("promoted value reported a raw form")
	}
	bb := big.Big()
	if got, want := big.WireBytes(), (bb.Num().BitLen()+bb.Denom().BitLen())/8+2; got != want {
		t.Errorf("promoted WireBytes = %d, want %d", got, want)
	}
}

// TestParts: Parts reads both representations without copying — the
// fast-path pair with the zero value's denominator decoded to 1, and the
// promoted value's own big.Ints.
func TestParts(t *testing.T) {
	for _, c := range []struct {
		x    Rat
		n, d int64
	}{{Zero, 0, 1}, {One, 1, 1}, {FromFrac(-6, 4), -3, 2}, {FromInt(1 << 40), 1 << 40, 1}} {
		n, d, bn, bd := c.x.Parts()
		if n != c.n || d != c.d || bn != nil || bd != nil {
			t.Errorf("Parts(%v) = %d, %d, %v, %v; want %d, %d, nil, nil", c.x, n, d, bn, bd, c.n, c.d)
		}
	}
	big := FromFrac(math.MaxInt64, 3).Mul(FromFrac(math.MaxInt64, 5))
	_, _, bn, bd := big.Parts()
	if bn != big.b.Num() || bd != big.b.Denom() {
		t.Fatal("Parts copied the promoted value's parts")
	}
	if bn.Cmp(big.Num()) != 0 || bd.Cmp(big.Den()) != 0 {
		t.Fatalf("Parts(%v) = %v/%v", big, bn, bd)
	}
	if a := testing.AllocsPerRun(10, func() { _, _, _, _ = big.Parts() }); a != 0 {
		t.Fatalf("Parts on a promoted value allocates %v times", a)
	}
}

// TestZeroRepresentationCanonical: a zero computed on the big path
// demotes to the zero value, the same representation the fast path
// returns, so equal results have equal raw forms whichever path made
// them.
func TestZeroRepresentationCanonical(t *testing.T) {
	x := FromFrac(math.MaxInt64-1, math.MaxInt64) // a·d overflows int64 in x − x
	z := x.Sub(x)
	if n, d, ok := z.Raw(); !ok || n != 0 || d != 0 {
		t.Fatalf("x − x has raw form (%d, %d, %v), want the zero value", n, d, ok)
	}
	if FromBig(new(big.Rat)) != Zero {
		t.Fatal("FromBig(0) is not the zero value")
	}
}
