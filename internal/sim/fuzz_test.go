package sim

import (
	"math/rand"
	"testing"

	"anoncover/internal/graph"
)

// chaosProg is a deterministic but arbitrary-looking program: each round
// it sends mixes of its evolving state and occasionally nil, and folds
// whatever it receives back into the state.  Engines must agree exactly
// on the final states, whatever the program does.
type chaosProg struct {
	deg   int
	state uint64
}

func (p *chaosProg) Init(env Env) {}

func (p *chaosProg) fold(x uint64) { p.state = mix64(p.state ^ x) }

func (p *chaosProg) Send(r int) []Message {
	out := make([]Message, p.deg)
	for q := range out {
		v := mix64(p.state ^ uint64(r)<<32 ^ uint64(q))
		if v%7 == 0 {
			out[q] = nil // exercise idle messages
		} else {
			out[q] = v
		}
	}
	return out
}

func (p *chaosProg) Recv(r int, msgs []Message) {
	for q, m := range msgs {
		if m == nil {
			p.fold(uint64(q) + 0xdead)
			continue
		}
		p.fold(m.(uint64) + uint64(q)<<48)
	}
}

func (p *chaosProg) Output() any { return p.state }

// chaosBcast is the broadcast sibling; it must be order-insensitive, so
// it folds received values commutatively (sum and xor).
type chaosBcast struct {
	deg        int
	state      uint64
	sum, xored uint64
}

func (p *chaosBcast) Init(env Env) {}

func (p *chaosBcast) Send(r int) Message {
	v := mix64(p.state ^ uint64(r))
	if v%5 == 0 {
		return nil
	}
	return v
}

func (p *chaosBcast) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		if m == nil {
			p.sum += 1
			continue
		}
		p.sum += m.(uint64)
		p.xored ^= m.(uint64)
	}
	p.state = mix64(p.state ^ p.sum ^ p.xored)
}

func (p *chaosBcast) Output() any { return p.state }

// TestEngineFuzzPortModel runs arbitrary deterministic programs on
// random topologies under every engine and demands identical outputs.
func TestEngineFuzzPortModel(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 15; trial++ {
		n := 5 + r.Intn(40)
		maxDeg := 2 + r.Intn(5)
		m := r.Intn(n*maxDeg/3 + 1)
		g := graph.RandomBoundedDegree(n, m, maxDeg, int64(trial))
		rounds := 1 + r.Intn(12)
		seeds := make([]uint64, n)
		for v := range seeds {
			seeds[v] = r.Uint64()
		}
		run := func(opt Options) []uint64 {
			progs := make([]PortProgram, n)
			nodes := make([]*chaosProg, n)
			for v := range progs {
				nodes[v] = &chaosProg{deg: g.Deg(v), state: seeds[v]}
				progs[v] = nodes[v]
			}
			RunPort(g, progs, rounds, opt)
			out := make([]uint64, n)
			for v := range out {
				out[v] = nodes[v].state
			}
			return out
		}
		ref := run(Options{Engine: Sequential})
		for _, opt := range []Options{
			{Engine: Sharded},
			{Engine: CSP},
			{Engine: Sharded, Workers: 2},
			{Engine: Sharded, Workers: 5},
		} {
			got := run(opt)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("trial %d engine %v/%d: node %d state %x != %x",
						trial, opt.Engine, opt.Workers, v, got[v], ref[v])
				}
			}
		}
	}
}

// TestEngineFuzzBroadcast does the same in the broadcast model, across
// engines and scramble seeds.
func TestEngineFuzzBroadcast(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 5 + r.Intn(30)
		maxDeg := 2 + r.Intn(4)
		m := r.Intn(n*maxDeg/3 + 1)
		g := graph.RandomBoundedDegree(n, m, maxDeg, int64(trial+100))
		rounds := 1 + r.Intn(10)
		seeds := make([]uint64, n)
		for v := range seeds {
			seeds[v] = r.Uint64()
		}
		run := func(eng Engine, scramble int64) []uint64 {
			progs := make([]BroadcastProgram, n)
			nodes := make([]*chaosBcast, n)
			for v := range progs {
				nodes[v] = &chaosBcast{deg: g.Deg(v), state: seeds[v]}
				progs[v] = nodes[v]
			}
			RunBroadcast(g, progs, rounds, Options{Engine: eng, ScrambleSeed: scramble})
			out := make([]uint64, n)
			for v := range out {
				out[v] = nodes[v].state
			}
			return out
		}
		ref := run(Sequential, 0)
		for _, eng := range []Engine{Sequential, Sharded, CSP} {
			for _, scr := range []int64{0, 1, 999} {
				got := run(eng, scr)
				for v := range ref {
					if got[v] != ref[v] {
						t.Fatalf("trial %d engine %v scramble %d: node %d differs",
							trial, eng, scr, v)
					}
				}
			}
		}
	}
}
