package sim

import (
	"testing"

	"anoncover/internal/graph"
)

// benchProg is a minimal program exercising the engine's message path.
type benchProg struct {
	deg   int
	state uint64
}

func (p *benchProg) Init(env Env) {}
func (p *benchProg) Send(r int) []Message {
	out := make([]Message, p.deg)
	for q := range out {
		out[q] = p.state + uint64(q)
	}
	return out
}
func (p *benchProg) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		p.state += m.(uint64)
	}
}
func (p *benchProg) Output() any { return p.state }

// BenchmarkEngineRound measures per-round engine overhead at n=10000,
// Δ≤6, for each engine.
func BenchmarkEngineRound(b *testing.B) {
	g := graph.RandomBoundedDegree(10000, 25000, 6, 1)
	for _, eng := range []Engine{Sequential, Sharded, CSP} {
		b.Run(eng.String(), func(b *testing.B) {
			progs := make([]PortProgram, g.N())
			for v := range progs {
				progs[v] = &benchProg{deg: g.Deg(v)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RunPort(g, progs, 10, Options{Engine: eng})
			}
			rounds := float64(10 * b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rounds/float64(g.N()), "ns/node/round")
		})
	}
}

// BenchmarkBroadcastScramble measures the cost of the delivery-order
// scrambling used to enforce multiset semantics in tests.
func BenchmarkBroadcastScramble(b *testing.B) {
	msgs := make([]Message, 16)
	for i := range msgs {
		msgs[i] = i
	}
	for i := 0; i < b.N; i++ {
		scramble(msgs, 42, 7, i)
	}
}
