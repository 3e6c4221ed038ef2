package fracpack

import (
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// BenchmarkRunScaling: linear in instance size at fixed (f, k).
func BenchmarkRunScaling(b *testing.B) {
	for _, u := range []int{50, 200, 800} {
		b.Run("u="+fmtInt(u), func(b *testing.B) {
			ins := bipartite.Random(u/2, u, 3, 6, 9, int64(u))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(ins, Options{})
			}
		})
	}
}

// BenchmarkEarlyExitScaling shows what the simulator-side termination
// oracle saves (ablation A3 at the package level).
func BenchmarkEarlyExitScaling(b *testing.B) {
	ins := bipartite.Random(100, 200, 3, 6, 9, 7)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(ins, Options{})
		}
	})
	b.Run("early-exit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(ins, Options{EarlyExit: true})
		}
	})
}

// BenchmarkFigure1 is the paper's worked example as a micro-benchmark.
func BenchmarkFigure1(b *testing.B) {
	bl := bipartite.NewBuilder(4, 6)
	bl.SetWeight(0, 4)
	bl.SetWeight(1, 9)
	bl.SetWeight(2, 8)
	bl.SetWeight(3, 12)
	bl.AddEdge(0, 0).AddEdge(0, 1)
	bl.AddEdge(1, 1).AddEdge(1, 2).AddEdge(1, 3)
	bl.AddEdge(2, 3).AddEdge(2, 4)
	bl.AddEdge(3, 3).AddEdge(3, 4).AddEdge(3, 5)
	ins := bl.Build()
	for i := 0; i < b.N; i++ {
		Run(ins, Options{})
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

// BenchmarkRunSCShape runs the benchmark's set-cover shape (f=3, k=6,
// W=1000; 3,552 rounds) at both of its instance sizes the way a
// compiled session does: pooled programs, a pooled simulator arena and
// a pre-built sharded view, so the figure is the rounds themselves.
// The plain rows run one shard; the sharded-2 rows run the two-shard
// Sharded engine a server picks for set cover, whose cut edges travel
// through the halo buffers.
func BenchmarkRunSCShape(b *testing.B) {
	for _, sz := range scShapes {
		for _, k := range []int{1, 2} {
			name := sz.name
			if k > 1 {
				name += "-sharded-2"
			}
			b.Run(name, func(b *testing.B) {
				ins := bipartite.Random(sz.s, sz.u, 3, 6, 1000, 5)
				opt := Options{
					Engine:   sim.Sharded,
					Workers:  k,
					Topology: shard.BuildK(ins.Flat(), k),
					Pool:     sim.NewPool(),
					Programs: &ProgramPool{},
				}
				defer opt.Pool.Close()
				MustRun(ins, opt)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MustRun(ins, opt)
				}
			})
		}
	}
}

// scShapes are the two instance sizes of the benchmark's sc-random
// workload.
var scShapes = []struct {
	name string
	s, u int
}{{"40x70", 40, 70}, {"80x140", 80, 140}}
