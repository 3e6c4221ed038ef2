package colour

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"anoncover/internal/rational"
)

// TestCVStepGuaranteeWide extends the exhaustive small-palette check to
// random wide colours via testing/quick: for any chain a -> b -> c of
// distinct colours up to 256 bits, the reduced colours of a's and b's
// nodes differ.
func TestCVStepGuaranteeWide(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	bound := new(big.Int).Lsh(big.NewInt(1), 256)
	for i := 0; i < 3000; i++ {
		a := new(big.Int).Rand(r, bound)
		b := new(big.Int).Rand(r, bound)
		c := new(big.Int).Rand(r, bound)
		if a.Cmp(b) == 0 {
			a.Add(a, big.NewInt(1))
		}
		if b.Cmp(c) == 0 {
			c.Add(c, big.NewInt(1))
		}
		na := CVStep(a, b)
		nb := CVStep(b, c)
		if na.Cmp(nb) == 0 {
			t.Fatalf("collision: CVStep(%v,%v) == CVStep(%v,%v)", a, b, b, c)
		}
		if nr := CVRootStep(b); na.Cmp(nr) == 0 {
			t.Fatalf("collision with root step at trial %d", i)
		}
	}
}

// TestEncodeRatQuick fuzzes encoding injectivity with testing/quick.
func TestEncodeRatQuick(t *testing.T) {
	f := func(n1, d1, n2, d2 int64) bool {
		if d1 == 0 || d2 == 0 {
			return true
		}
		a := rational.FromFrac(n1, d1)
		b := rational.FromFrac(n2, d2)
		ea, eb := EncodeRat(a), EncodeRat(b)
		return a.Equal(b) == (ea.Cmp(eb) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestBitsBoundQuick: encoded sizes never exceed the scheduled bound for
// values within the declared bit budgets.
func TestBitsBoundQuick(t *testing.T) {
	f := func(nRaw, dRaw uint32) bool {
		n := int64(nRaw % (1 << 24))
		d := int64(dRaw%(1<<20)) + 1
		x := rational.FromFrac(n, d)
		return EncodeRat(x).BitLen() <= BitsBoundRat(24, 21)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestCVStep64MatchesBig: the word-sized steps agree with the big.Int
// steps on random colours of every width up to 64 bits, and panic where
// CVStep does.
func TestCVStep64MatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		width := 1 + r.Intn(64)
		own := r.Uint64() >> uint(64-width)
		parent := r.Uint64() >> uint(64-width)
		if r.Intn(4) == 0 {
			parent = own ^ 1<<uint(r.Intn(width)) // differ in one bit only
		}
		bo, bp := new(big.Int).SetUint64(own), new(big.Int).SetUint64(parent)
		if got, want := CVRootStep64(own), CVRootStep(bo); got != want.Uint64() {
			t.Fatalf("CVRootStep64(%#x) = %d, want %v", own, got, want)
		}
		if own == parent {
			continue
		}
		if got, want := CVStep64(own, parent), CVStep(bo, bp); got != want.Uint64() {
			t.Fatalf("CVStep64(%#x, %#x) = %d, want %v", own, parent, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CVStep64 accepted equal colours")
		}
	}()
	CVStep64(5, 5)
}
