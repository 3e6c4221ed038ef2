package colour

import (
	"math/big"
	"math/rand"
	"testing"

	"anoncover/internal/rational"
)

func BenchmarkCVStepWide(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	own := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 512))
	parent := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 512))
	if own.Cmp(parent) == 0 {
		parent.Add(parent, big.NewInt(1))
	}
	for i := 0; i < b.N; i++ {
		_ = CVStep(own, parent)
	}
}

func BenchmarkCVStepNarrow(b *testing.B) {
	own, parent := big.NewInt(5), big.NewInt(2)
	for i := 0; i < b.N; i++ {
		_ = CVStep(own, parent)
	}
}

func BenchmarkEncodeRat(b *testing.B) {
	x := rational.FromFrac(123456789, 987654)
	for i := 0; i < b.N; i++ {
		_ = EncodeRat(x)
	}
}

func BenchmarkWeakSixToFour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = WeakSixToFour(i%6, (i+1)%6)
	}
}

func BenchmarkCVRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = CVRounds(1 << 20)
	}
}
