package edgepack

import (
	"testing"

	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// BenchmarkRunScaling: wall time must scale linearly in n at fixed Δ —
// the algorithmic work per node is O(rounds · deg), independent of n.
func BenchmarkRunScaling(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run("n="+fmtInt(n), func(b *testing.B) {
			g := graph.RandomBoundedDegree(n, n*2, 6, int64(n))
			graph.RandomWeights(g, 20, int64(n+1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MustRun(g, Options{})
			}
		})
	}
}

// BenchmarkRunByDelta: wall time grows with Δ through both the schedule
// and the per-node port work.
func BenchmarkRunByDelta(b *testing.B) {
	for _, d := range []int{3, 6, 9} {
		b.Run("delta="+fmtInt(d), func(b *testing.B) {
			g := graph.RandomBoundedDegree(2000, 2000*d/3, d, int64(d))
			graph.RandomWeights(g, 20, int64(d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MustRun(g, Options{})
			}
		})
	}
}

// BenchmarkRunPooledDelta12 is one op of the vc-weights shape: a pooled
// Sequential run at declared Δ=12, W=1000.  Phase I denominators put it
// past the wire gate, so it runs boxed.  The dense row steps every node
// in every round; the sleeping row lets nodes sleep through the star
// rounds in which they neither request nor reply.  Compare the two rows
// of one run (-count 10 and benchstat, say), not rows across runs.
func BenchmarkRunPooledDelta12(b *testing.B) {
	g := graph.PowerLawBounded(1000, 3, 12, 1)
	graph.RandomWeights(g, 1000, 2)
	opt := Options{Engine: sim.Sequential, Delta: 12, W: 1000, Topology: g.Flat(),
		Programs: &ProgramPool{}, Pool: sim.NewPool()}
	for _, sleeping := range []bool{false, true} {
		name := "dense"
		if sleeping {
			name = "sleeping"
		}
		b.Run(name, func(b *testing.B) {
			runAs(b, g, opt, sleeping)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runAs(b, g, opt, sleeping)
			}
		})
	}
}

// BenchmarkPhaseIOnly isolates Phase I (regular uniform graphs saturate
// there, so stars and CV are no-ops).
func BenchmarkPhaseIOnly(b *testing.B) {
	g := graph.RandomRegular(2000, 6, 1)
	graph.UniformWeights(g, 12)
	for i := 0; i < b.N; i++ {
		MustRun(g, Options{})
	}
}

// BenchmarkSchedule measures the schedule computation itself.
func BenchmarkSchedule(b *testing.B) {
	p := sim.Params{Delta: 16, W: 1 << 40}
	for i := 0; i < b.N; i++ {
		_ = Rounds(p)
	}
}

func fmtInt(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
