package colour

import (
	"math/big"
	"math/rand"
	"testing"

	"anoncover/internal/rational"
)

func TestLogStar(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 3},
		{17, 4}, {65536, 4}, {65537, 5}, {1 << 62, 5},
	}
	for _, c := range cases {
		if got := LogStarInt(c.n); got != c.want {
			t.Errorf("LogStarInt(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestEncodeRatInjective(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := make(map[string]rational.Rat)
	for i := 0; i < 3000; i++ {
		x := rational.FromFrac(r.Int63n(1000)+1, r.Int63n(1000)+1)
		key := EncodeRat(x).String()
		if prev, ok := seen[key]; ok && !prev.Equal(x) {
			t.Fatalf("collision: %v and %v both encode to %s", prev, x, key)
		}
		seen[key] = x
	}
}

func TestEncodeBoundsHold(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		num := r.Int63n(1 << 40)
		den := r.Int63n(1<<30) + 1
		x := rational.FromFrac(num, den)
		bound := BitsBoundRat(41, 31)
		if got := EncodeRat(x).BitLen(); got > bound {
			t.Fatalf("EncodeRat(%v) has %d bits > bound %d", x, got, bound)
		}
	}
}

func TestFactorialBits(t *testing.T) {
	// 10! = 3628800 has 22 bits; the bound must be >= that and sane.
	got := FactorialBits(10)
	if got < 22 || got > 40 {
		t.Fatalf("FactorialBits(10) = %d", got)
	}
	if FactorialBits(1) < 1 {
		t.Fatal("FactorialBits(1) too small")
	}
}

// TestCVStepGuarantee checks exhaustively (over a bounded palette) the
// property that makes Cole–Vishkin work: for any chain a -> b -> c of
// colours with a != b, b != c, the new colour of a's node differs from
// the new colour of b's node, and likewise against root steps.
func TestCVStepGuarantee(t *testing.T) {
	const limit = 64
	for a := int64(0); a < limit; a++ {
		for b := int64(0); b < limit; b++ {
			if a == b {
				continue
			}
			na := CVStep(big.NewInt(a), big.NewInt(b))
			if nr := CVRootStep(big.NewInt(b)); na.Cmp(nr) == 0 {
				t.Fatalf("CVStep(%d,%d) == CVRootStep(%d) == %v", a, b, b, na)
			}
			for c := int64(0); c < limit; c++ {
				if c == b {
					continue
				}
				nb := CVStep(big.NewInt(b), big.NewInt(c))
				if na.Cmp(nb) == 0 {
					t.Fatalf("CVStep(%d,%d) == CVStep(%d,%d) == %v", a, b, b, c, na)
				}
			}
		}
	}
}

func TestCVStepPanicsOnEqual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CVStep(big.NewInt(3), big.NewInt(3))
}

func TestCVStepRange(t *testing.T) {
	// From the {0..5} palette the step stays within {0..5}.
	for a := int64(0); a < 6; a++ {
		for b := int64(0); b < 6; b++ {
			if a == b {
				continue
			}
			if got := CVStep(big.NewInt(a), big.NewInt(b)); got.Int64() > 5 {
				t.Fatalf("CVStep(%d,%d) = %v leaves the plateau palette", a, b, got)
			}
		}
	}
}

func TestCVRounds(t *testing.T) {
	if got := CVRounds(3); got != 1 {
		// 3-bit colours reach {0..5} but may still be 6 or 7.
		t.Fatalf("CVRounds(3) = %d, want 1", got)
	}
	if got := CVRounds(1); got != 0 {
		t.Fatalf("CVRounds(1) = %d, want 0", got)
	}
	// log*-like growth: even astronomically wide colours need few rounds.
	if got := CVRounds(1 << 40); got > 10 {
		t.Fatalf("CVRounds(2^40 bits) = %d, unexpectedly large", got)
	}
	if CVRounds(1<<40) <= CVRounds(16)-1 {
		t.Fatal("CVRounds not monotone-ish")
	}
}

// TestCVRoundsSufficient runs actual chains: colours along a path are
// strictly decreasing (proper), and after CVRounds(bits) steps every
// colour must be in {0..5}.
func TestCVRoundsSufficient(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 200
	for trial := 0; trial < 20; trial++ {
		// A path v0 <- v1 <- ... (each node's parent is the previous).
		cols := make([]*big.Int, n)
		used := make(map[string]bool)
		for i := range cols {
			for {
				c := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 96))
				if !used[c.String()] {
					used[c.String()] = true
					cols[i] = c
					break
				}
			}
		}
		rounds := CVRounds(96)
		for step := 0; step < rounds; step++ {
			next := make([]*big.Int, n)
			for i := range cols {
				if i == 0 {
					next[i] = CVRootStep(cols[i])
				} else {
					next[i] = CVStep(cols[i], cols[i-1])
				}
			}
			cols = next
			// properness along the path must be preserved
			for i := 1; i < n; i++ {
				if cols[i].Cmp(cols[i-1]) == 0 {
					t.Fatalf("trial %d step %d: colouring became improper", trial, step)
				}
			}
		}
		for i, c := range cols {
			if c.Int64() > 5 {
				t.Fatalf("trial %d: node %d colour %v after %d rounds", trial, i, c, rounds)
			}
		}
	}
}

// TestWeakSixToFourDisjointness verifies the structural facts the 6->4
// step relies on: the six Out sets are distinct 2-subsets of {0..3}, and
// Out(a) ∩ In(b) is non-empty for every a != b.
func TestWeakSixToFourDisjointness(t *testing.T) {
	for a := 0; a < 6; a++ {
		if n := popcount4(weakOut[a]); n != 2 {
			t.Fatalf("Out(%d) has %d elements", a, n)
		}
		for b := 0; b < 6; b++ {
			if a != b && weakOut[a] == weakOut[b] {
				t.Fatalf("Out(%d) == Out(%d)", a, b)
			}
			if a != b && weakOut[a]&weakIn(b) == 0 {
				t.Fatalf("Out(%d) ∩ In(%d) empty", a, b)
			}
		}
	}
}

func popcount4(x uint8) int {
	n := 0
	for i := 0; i < 4; i++ {
		if x&(1<<i) != 0 {
			n++
		}
	}
	return n
}

// TestWeakSixToFourPreservesWitness checks the weak-invariant guarantee:
// for any u with old colour a and witness colour b (old colour of all its
// witness successors), the new colours differ — regardless of what the
// successors' own witness colours are.
func TestWeakSixToFourPreservesWitness(t *testing.T) {
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if a == b {
				continue
			}
			uNew := WeakSixToFour(a, b)
			if uNew < 0 || uNew > 3 {
				t.Fatalf("WeakSixToFour(%d,%d) = %d out of range", a, b, uNew)
			}
			// successor v has old colour b; its own ell is any c != b or none
			for c := -1; c < 6; c++ {
				if c == b {
					continue
				}
				vNew := WeakSixToFour(b, c)
				if uNew == vNew {
					t.Fatalf("witness broken: u(%d,%d)->%d == v(%d,%d)->%d",
						a, b, uNew, b, c, vNew)
				}
			}
		}
	}
}

func TestWeakSixToFourPanics(t *testing.T) {
	for _, c := range [][2]int{{-1, 0}, {6, 0}, {0, 6}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WeakSixToFour(%d,%d): no panic", c[0], c[1])
				}
			}()
			WeakSixToFour(c[0], c[1])
		}()
	}
}
