// Benchmarks, one per paper artifact (the experiments cmd/experiments
// prints): Table 1, Theorems 1 and 2, Figures 1-4, Section 5, Section 7,
// and the ablations.  Custom metrics report rounds and approximation
// ratios next to the usual ns/op.
package anoncover

import (
	"context"
	"math/big"
	"testing"
	"time"

	"anoncover/internal/baselines"
	"anoncover/internal/bipartite"
	"anoncover/internal/check"
	"anoncover/internal/colour"
	"anoncover/internal/core/bcastvc"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/exact"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// table1Graph is the shared Table 1 benchmark instance.
func table1Graph() *graph.G {
	return graph.RandomBoundedDegree(200, 360, 4, 1)
}

// BenchmarkTable1_ThisWork: the Section 3 algorithm on the Table 1
// benchmark (deterministic, weighted-capable, 2-approx, n-independent).
func BenchmarkTable1_ThisWork(b *testing.B) {
	g := table1Graph()
	var rounds int
	for i := 0; i < b.N; i++ {
		rounds = edgepack.MustRun(g, edgepack.Options{}).Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkTable1_PolishchukSuomela: the deterministic unweighted
// 3-approximation [30].
func BenchmarkTable1_PolishchukSuomela(b *testing.B) {
	g := table1Graph()
	var rounds int
	for i := 0; i < b.N; i++ {
		rounds = baselines.PolishchukSuomela3Approx(g).Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkTable1_RandomizedMatching: the randomised 2-approximation
// rows [12, 17].
func BenchmarkTable1_RandomizedMatching(b *testing.B) {
	g := table1Graph()
	var rounds int
	for i := 0; i < b.N; i++ {
		rounds = baselines.RandomizedMatchingVC(g, int64(i)).Rounds
	}
	b.ReportMetric(float64(rounds), "rounds(last)")
}

// BenchmarkTable1_EdgeColouringRoute: the identifier-based edge
// colouring recipe [28].
func BenchmarkTable1_EdgeColouringRoute(b *testing.B) {
	g := table1Graph()
	var rounds int
	for i := 0; i < b.N; i++ {
		rounds = baselines.EdgeColouringPacking(g).SaturationRounds
	}
	b.ReportMetric(float64(rounds), "saturation-rounds")
}

// BenchmarkTheorem1_RoundsVsDelta: O(Δ + log* W) growth.
func BenchmarkTheorem1_RoundsVsDelta(b *testing.B) {
	for _, d := range []int{2, 4, 8} {
		b.Run("delta="+itoa(d), func(b *testing.B) {
			g := graph.RandomBoundedDegree(300, 300*d/3, d, int64(d))
			graph.RandomWeights(g, 8, int64(d))
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = edgepack.MustRun(g, edgepack.Options{}).Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkTheorem1_NIndependence: the same Δ at different n must give
// the same rounds (and ns/op linear in n, not rounds).
func BenchmarkTheorem1_NIndependence(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			g := graph.Cycle(n)
			graph.UniformWeights(g, 5)
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = edgepack.MustRun(g, edgepack.Options{}).Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkTheorem1_RoundsVsW: the log* W term.
func BenchmarkTheorem1_RoundsVsW(b *testing.B) {
	for _, w := range []int64{1, 1 << 16, 1 << 62} {
		b.Run("W=2^"+itoa(bitlen(w)), func(b *testing.B) {
			g := graph.RandomBoundedDegree(100, 130, 4, 9)
			for v := 0; v < g.N(); v++ {
				g.SetWeight(v, 1+(int64(v*2654435761)%w+w)%w)
			}
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = edgepack.MustRun(g, edgepack.Options{}).Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkTheorem2_RoundsVsFK: O(f²k² + fk log* W) growth.
func BenchmarkTheorem2_RoundsVsFK(b *testing.B) {
	for _, fk := range [][2]int{{2, 2}, {2, 4}, {3, 3}} {
		f, k := fk[0], fk[1]
		b.Run("f="+itoa(f)+",k="+itoa(k), func(b *testing.B) {
			ins := bipartite.Random(20, 20, f, k, 4, int64(f*10+k))
			var rounds int
			for i := 0; i < b.N; i++ {
				rounds = fracpack.MustRun(ins, fracpack.Options{}).Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkApproxRatio_VC: measured ratio against the exact optimum.
func BenchmarkApproxRatio_VC(b *testing.B) {
	g := graph.RandomBoundedDegree(18, 30, 4, 3)
	graph.RandomWeights(g, 9, 4)
	_, opt := exact.VertexCover(g)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := edgepack.MustRun(g, edgepack.Options{})
		ratio = float64(res.CoverWeight(g)) / float64(opt)
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkApproxRatio_SC: measured ratio against the exact optimum.
func BenchmarkApproxRatio_SC(b *testing.B) {
	ins := bipartite.Random(10, 24, 3, 6, 9, 5)
	_, opt := exact.SetCover(ins)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := fracpack.MustRun(ins, fracpack.Options{})
		ratio = float64(res.CoverWeight(ins)) / float64(opt)
	}
	b.ReportMetric(ratio, "ratio")
}

// figure1Instance is the Figure 1 worked example.
func figure1Instance() *bipartite.Instance {
	bl := bipartite.NewBuilder(4, 6)
	bl.SetWeight(0, 4)
	bl.SetWeight(1, 9)
	bl.SetWeight(2, 8)
	bl.SetWeight(3, 12)
	bl.AddEdge(0, 0).AddEdge(0, 1)
	bl.AddEdge(1, 1).AddEdge(1, 2).AddEdge(1, 3)
	bl.AddEdge(2, 3).AddEdge(2, 4)
	bl.AddEdge(3, 3).AddEdge(3, 4).AddEdge(3, 5)
	return bl.Build()
}

// BenchmarkFigure1_Trace: the Figure 1 instance end to end.
func BenchmarkFigure1_Trace(b *testing.B) {
	ins := figure1Instance()
	var w int64
	for i := 0; i < b.N; i++ {
		w = fracpack.MustRun(ins, fracpack.Options{}).CoverWeight(ins)
	}
	b.ReportMetric(float64(w), "cover-weight")
}

// BenchmarkFigure2_WeakReduction: the CV + 6→4 pipeline on a 200-node
// chain of 96-bit colours.
func BenchmarkFigure2_WeakReduction(b *testing.B) {
	const n = 200
	init := make([]*big.Int, n)
	for i := range init {
		init[i] = new(big.Int).Lsh(big.NewInt(int64(3*n-3*i)), 80)
	}
	rounds := colour.CVRounds(96)
	for i := 0; i < b.N; i++ {
		cols := append([]*big.Int(nil), init...)
		for step := 0; step < rounds; step++ {
			next := make([]*big.Int, n)
			for j := range cols {
				if j == 0 {
					next[j] = colour.CVRootStep(cols[j])
				} else {
					next[j] = colour.CVStep(cols[j], cols[j-1])
				}
			}
			cols = next
		}
		for j := range cols {
			ell := -1
			if j > 0 && cols[j-1].Cmp(cols[j]) != 0 {
				ell = int(cols[j-1].Int64())
			}
			_ = colour.WeakSixToFour(int(cols[j].Int64()), ell)
		}
	}
	b.ReportMetric(float64(rounds+1), "reduction-steps")
}

// BenchmarkFigure3_SymmetricLowerBound: ratio exactly p on K_{p,p}.
func BenchmarkFigure3_SymmetricLowerBound(b *testing.B) {
	ins := bipartite.SymmetricKpp(4)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := fracpack.MustRun(ins, fracpack.Options{})
		ratio = float64(res.CoverWeight(ins)) // OPT = 1
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkFigure4_CycleReduction: the reduction + extraction pipeline.
func BenchmarkFigure4_CycleReduction(b *testing.B) {
	n, p := 60, 3
	ins := bipartite.CycleReduction(n, p)
	var isSize int
	for i := 0; i < b.N; i++ {
		cover := baselines.GreedySetCover(ins)
		is := make([]int, 0)
		inX := func(v int) bool { return !cover[v] }
		for v := 0; v < n; v++ {
			if inX(v) && !inX((v-1+n)%n) {
				is = append(is, v)
			}
		}
		isSize = len(is)
	}
	b.ReportMetric(float64(isSize), "independent-set")
}

// BenchmarkSection5_BroadcastVC: the history-based simulation.
func BenchmarkSection5_BroadcastVC(b *testing.B) {
	g := graph.RandomBoundedDegree(12, 12, 3, 7)
	graph.RandomWeights(g, 5, 8)
	var rounds int
	for i := 0; i < b.N; i++ {
		rounds = bcastvc.MustRun(g, bcastvc.Options{}).Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkSection5_HistoryBytes: message growth of the simulation.
func BenchmarkSection5_HistoryBytes(b *testing.B) {
	g := graph.Cycle(10)
	graph.RandomWeights(g, 6, 2)
	var maxBytes int
	for i := 0; i < b.N; i++ {
		maxBytes = bcastvc.MustRun(g, bcastvc.Options{}).MaxMsgBytes
	}
	b.ReportMetric(float64(maxBytes), "max-msg-bytes")
}

// BenchmarkSection7_Frucht: the forced-symmetry run.
func BenchmarkSection7_Frucht(b *testing.B) {
	g := graph.Frucht()
	third := rational.FromFrac(1, 3)
	for i := 0; i < b.N; i++ {
		res := bcastvc.MustRun(g, bcastvc.Options{})
		for _, y := range res.Y {
			if !y.Equal(third) {
				b.Fatal("Section 7 prediction violated")
			}
		}
	}
}

// BenchmarkEngines: identical work on every in-process engine.
func BenchmarkEngines(b *testing.B) {
	g := graph.RandomBoundedDegree(5000, 12000, 6, 3)
	graph.RandomWeights(g, 30, 4)
	for _, eng := range []sim.Engine{sim.Sequential, sim.Sharded, sim.CSP} {
		b.Run(eng.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				edgepack.MustRun(g, edgepack.Options{Engine: eng})
			}
		})
	}
}

// BenchmarkAblation_PhaseII: our anonymous pipeline vs the ID-based
// edge-colouring pipeline on the same weighted graph.
func BenchmarkAblation_PhaseII(b *testing.B) {
	g := graph.RandomBoundedDegree(500, 1200, 6, 11)
	graph.RandomWeights(g, 25, 12)
	b.Run("forests-anonymous", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			rounds = edgepack.MustRun(g, edgepack.Options{}).Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("edge-colouring-with-IDs", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			rounds = baselines.EdgeColouringPacking(g).SaturationRounds
		}
		b.ReportMetric(float64(rounds), "saturation-rounds")
	})
}

// BenchmarkAblation_Rational: the int64 fast path against permanent
// big.Rat arithmetic on the algorithm's typical operation mix.
func BenchmarkAblation_Rational(b *testing.B) {
	b.Run("fast-path", func(b *testing.B) {
		x := rational.FromFrac(7, 3)
		y := rational.FromFrac(5, 11)
		for i := 0; i < b.N; i++ {
			z := x.Add(y).Mul(x).DivInt(4)
			if z.Sign() < 0 {
				b.Fatal("impossible")
			}
		}
	})
	b.Run("big-always", func(b *testing.B) {
		x := new(big.Rat).SetFrac64(7, 3)
		y := new(big.Rat).SetFrac64(5, 11)
		four := new(big.Rat).SetInt64(4)
		for i := 0; i < b.N; i++ {
			z := new(big.Rat).Add(x, y)
			z.Mul(z, x)
			z.Quo(z, four)
			if z.Sign() < 0 {
				b.Fatal("impossible")
			}
		}
	})
}

// BenchmarkAblation_EarlyExit: the fixed schedule vs simulator-side
// early exit.
func BenchmarkAblation_EarlyExit(b *testing.B) {
	ins := bipartite.Random(15, 40, 3, 6, 9, 8)
	b.Run("full-schedule", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			rounds = fracpack.MustRun(ins, fracpack.Options{}).Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("early-exit", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			rounds = fracpack.MustRun(ins, fracpack.Options{EarlyExit: true}).Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkDualityCheck: cost of verifying a certificate (the "free"
// part of the LP-duality design).
func BenchmarkDualityCheck(b *testing.B) {
	g := graph.RandomBoundedDegree(2000, 5000, 6, 13)
	graph.RandomWeights(g, 40, 14)
	res := edgepack.MustRun(g, edgepack.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := check.VCDualityCertificate(g, res.Y, res.Cover); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverReuse: the session API's amortization claim.  The
// oneshot variant pays the full per-call setup (flatten, shard
// partition, worker spawn) on every run; the solver variant compiles
// once and serves repeated runs from the session's pooled resources.
func BenchmarkSolverReuse(b *testing.B) {
	families := []struct {
		name string
		g    *Graph
	}{
		{"grid-100x100", GridGraph(100, 100)},
		{"powerlaw-2000", PowerLawBoundedGraph(2000, 3, 12, 9)},
	}
	for _, fam := range families {
		fam.g.WeighRandom(9, 10)
		opts := []Option{WithEngine(EngineSharded), WithWorkers(4)}
		b.Run(fam.name+"/oneshot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				VertexCover(fam.g, opts...)
			}
		})
		b.Run(fam.name+"/solver", func(b *testing.B) {
			s, err := Compile(fam.g, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.VertexCover(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify: VertexCoverResult.Verify against the run it
// certifies, on a compiled Sequential session with weights up to 1000.
// verify-ms and run-ms are per op; verify/run is their ratio, which the
// per-node certificate keeps well below 1.
func BenchmarkVerify(b *testing.B) {
	families := []struct {
		name string
		g    *Graph
	}{
		{"grid-40x40", GridGraph(40, 40)},
		{"powerlaw-1000-d12", PowerLawBoundedGraph(1000, 3, 12, 9)},
		{"random-1600x3200-d6", RandomGraph(1600, 3200, 6, 9)},
	}
	for _, fam := range families {
		fam.g.WeighRandom(1000, 10)
		b.Run(fam.name, func(b *testing.B) {
			s, err := Compile(fam.g, WithEngine(EngineSequential))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var run, verify time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				res, err := s.VertexCover(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if err := res.Verify(); err != nil {
					b.Fatal(err)
				}
				run += t1.Sub(t0)
				verify += time.Since(t1)
			}
			b.ReportMetric(float64(verify)/1e6/float64(b.N), "verify-ms")
			b.ReportMetric(float64(run)/1e6/float64(b.N), "run-ms")
			b.ReportMetric(float64(verify)/float64(run), "verify/run")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func bitlen(w int64) int {
	b := 0
	for w > 1 {
		w >>= 1
		b++
	}
	return b
}
