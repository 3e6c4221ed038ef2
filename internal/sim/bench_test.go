package sim

import (
	"math/bits"
	"testing"

	"anoncover/internal/graph"
	"anoncover/internal/shard"
)

// throughputProg is the broadcast workload: a constant message and an
// order-insensitive fold, so the benchmark measures the engine's
// delivery cost rather than algorithm cost.
type throughputProg struct {
	msg Message
	acc uint64
}

func (p *throughputProg) Init(env Env)       {}
func (p *throughputProg) Send(r int) Message { return p.msg }
func (p *throughputProg) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		p.acc += m.(uint64)
	}
}
func (p *throughputProg) Output() any { return p.acc }

// offerLike is the port workload's message: the shape of an edgepack
// Phase I offer, a fast-path rational whose wire size depends on its
// value, like rational.Rat.WireBytes.
type offerLike struct{ n, d int64 }

func (m offerLike) WireSize() int {
	return (bits.Len64(uint64(m.n))+bits.Len64(uint64(m.d)))/8 + 2
}

// wirePortProg is the port workload, shaped like edgepack's dominant
// rounds on both paths: the boxed path boxes one fresh offer per node
// per round and answers a WireSize query per delivered message, while
// the wire path encodes the same value into edgepack's 3-word
// [header, n, d] lane and tallies bytes once per node.
type wirePortProg struct {
	deg int
	out []Message
	acc uint64
}

func newWirePortProg(deg int) *wirePortProg {
	return &wirePortProg{deg: deg, out: make([]Message, deg)}
}

func (p *wirePortProg) offer(r int) offerLike {
	return offerLike{n: int64(r)<<8 | 0x55, d: int64(r)&7 + 1}
}

func (p *wirePortProg) Init(env Env) {}
func (p *wirePortProg) Send(r int) []Message {
	m := Message(p.offer(r))
	for i := range p.out {
		p.out[i] = m
	}
	return p.out
}
func (p *wirePortProg) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		p.acc += uint64(m.(offerLike).n)
	}
}
func (p *wirePortProg) Output() any         { return p.acc }
func (p *wirePortProg) WireWords(r int) int { return 3 }
func (p *wirePortProg) SendWire(r int, out []uint64) (int64, int64, bool) {
	m := p.offer(r)
	hdr := uint64(r)<<3 | 1
	for q := 0; q < p.deg; q++ {
		out[3*q] = hdr
		out[3*q+1] = uint64(m.n)
		out[3*q+2] = uint64(m.d)
	}
	return int64(p.deg), int64(p.deg) * int64(m.WireSize()), true
}
func (p *wirePortProg) RecvWire(r int, in []uint64) {
	for q := 0; q < p.deg; q++ {
		p.acc += in[3*q+1]
	}
}

// BenchmarkEngineRound measures per-round engine cost at n=10000, Δ≤6,
// for each delivery path (port word lanes, boxed port, broadcast value
// slots) on one shard and on two and four, plus the CSP oracle on
// the boxed port path.  Views and pools are built before the timer
// starts, so the figure is the rounds alone.
func BenchmarkEngineRound(b *testing.B) {
	const rounds = 10
	g := graph.RandomBoundedDegree(10000, 25000, 6, 1)
	flat := g.Flat()
	type engine struct {
		name    string
		engine  Engine
		workers int
	}
	engines := []engine{
		{"sequential", Sequential, 1},
		{"sharded-2", Sharded, 2},
		{"sharded-4", Sharded, 4},
	}
	paths := []string{"wire-port", "boxed-port", "broadcast"}
	bench := func(b *testing.B, path string, eng engine) {
		var top Topology = g
		if eng.engine != CSP {
			top = shard.BuildK(flat, eng.workers)
		}
		pool := NewPool()
		defer pool.Close()
		opt := Options{Engine: eng.engine, Workers: eng.workers, Pool: pool, NoWire: path == "boxed-port"}
		// The programs keep no per-run state worth resetting, so one
		// set serves every iteration.
		bprogs := make([]BroadcastProgram, g.N())
		pprogs := make([]PortProgram, g.N())
		for v := range bprogs {
			bprogs[v] = &throughputProg{msg: uint64(3)}
			pprogs[v] = newWirePortProg(g.Deg(v))
		}
		run := func() {
			var err error
			if path == "broadcast" {
				_, err = RunBroadcast(top, bprogs, rounds, opt)
			} else {
				_, err = RunPort(top, pprogs, rounds, opt)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		run() // warm the pool's workers and arenas
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds*b.N)/float64(g.N()), "ns/node/round")
	}
	for _, path := range paths {
		for _, eng := range engines {
			b.Run(path+"/"+eng.name, func(b *testing.B) { bench(b, path, eng) })
		}
	}
	b.Run("boxed-port/csp", func(b *testing.B) { bench(b, "boxed-port", engine{"csp", CSP, 0}) })
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
