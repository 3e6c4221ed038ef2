package dist_test

import (
	"testing"
	"time"

	"anoncover/internal/dist"
	"anoncover/internal/graph"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// stragglerProg is a port program with edgepack's 3-word offer lanes
// and an injected per-shard stall.  Each round one pseudorandomly
// chosen shard is slow: its agent node (the shard's first owned node)
// sleeps for the spike inside SendWire, in the round's compute phase,
// where a real straggler (a blocking syscall, a preempted worker)
// lands.  It sleeps rather than spins, so whether the other shards can
// use the CPU meanwhile is decided by the barrier under test alone.
type stragglerProg struct {
	deg   int
	acc   uint64
	shard int           // shard owning this node
	agent bool          // first node of its shard: carries the spike
	k     int           // shard count (spike schedule modulus)
	spike time.Duration // stall per spiking shard-round
}

// spikeShard picks the slow shard for a round, deterministically, so
// both barriers see the identical schedule.  The splitmix64 finalizer
// jumps the spike around the shards: a weaker mixer walks it one shard
// every other round, which delay propagation (one shard-hop per round)
// tracks exactly, and the benchmark would measure that resonance
// instead of the barrier.
func spikeShard(r, k int) int {
	x := uint64(r+1) * 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return int((x ^ x>>31) % uint64(k))
}

// Send and Recv serve only the boxed path, which these runs never take.
func (p *stragglerProg) Init(env sim.Env)               {}
func (p *stragglerProg) Send(r int) []sim.Message       { return make([]sim.Message, p.deg) }
func (p *stragglerProg) Recv(r int, msgs []sim.Message) {}
func (p *stragglerProg) Output() any                    { return p.acc }
func (p *stragglerProg) WireWords(r int) int            { return 3 }
func (p *stragglerProg) SendWire(r int, out []uint64) (int64, int64, bool) {
	if p.agent && spikeShard(r, p.k) == p.shard {
		time.Sleep(p.spike)
	}
	for q := 0; q < p.deg; q++ {
		out[3*q], out[3*q+1], out[3*q+2] = uint64(r)<<3|1, uint64(r)<<8|0x55, uint64(r)&7+1
	}
	return int64(p.deg), 3 * int64(p.deg), true
}
func (p *stragglerProg) RecvWire(r int, in []uint64) {
	for q := 0; q < p.deg; q++ {
		p.acc += in[3*q+1]
	}
}

// BenchmarkStraggler measures what the Distributed engine's per-pair
// barrier buys over the in-process Sharded engine's global barrier when
// one of 8 shards stalls for 1 ms each round.  Under the global barrier
// every round ends with the slowest shard, so a run pays every spike:
// wall ≈ rounds × spike.  Under the per-pair barrier a shard waits only
// for the neighbours whose halo lanes it consumes, so a spike delays the
// others only as far as it propagates, one shard-hop per round.  The
// per-pair side runs on the loopback cluster and pays real TCP framing:
// its win must survive the transport, not be measured net of it.
func BenchmarkStraggler(b *testing.B) {
	const (
		k      = 8
		side   = 48
		rounds = 32
		spike  = time.Millisecond
	)
	g := graph.Grid(side, side)
	st := shard.BuildK(g.Flat(), k)
	part := st.Part()
	shardOf := make([]int, g.N())
	agent := make([]bool, g.N())
	for s, nodes := range part.Nodes {
		for _, v := range nodes {
			shardOf[v] = s
		}
		if len(nodes) > 0 {
			agent[nodes[0]] = true
		}
	}
	progs := make([]sim.PortProgram, g.N())
	for v := range progs {
		progs[v] = &stragglerProg{deg: g.Deg(v), shard: shardOf[v], agent: agent[v], k: part.K(), spike: spike}
	}
	modes := []struct {
		name string
		opt  sim.Options
	}{
		{"global-barrier", sim.Options{Engine: sim.Sharded, Workers: k}},
		{"per-pair", sim.Options{Engine: sim.Distributed, Dist: dist.NewCluster(k), Workers: k}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			run := func() {
				if _, err := sim.RunPort(st, progs, rounds, m.opt); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm: dials the mesh, faults the arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds*b.N)/1e6, "ms/round")
		})
	}
}
