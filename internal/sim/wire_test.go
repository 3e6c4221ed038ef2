package sim_test

import (
	"fmt"
	"testing"

	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// sizedVal is a test message whose wire size depends on its value, so
// the parity test exercises the Bytes accounting, not just Messages.
type sizedVal uint64

func (s sizedVal) WireSize() int { return int(s%7) + 1 }

// laneProg is a WirePortProgram test double covering every lane shape
// the engines must handle: full rounds, partially-nil rounds, all-nil
// rounds, and a boxed round in the middle of the schedule (WireWords
// returns 0 for round%5 == 4).  Boxed Send/Recv and the wire encoders
// drive the same fold, so any divergence between delivery paths shows
// up in the final state.
type laneProg struct {
	deg   int
	state uint64
	out   []sim.Message
}

func (p *laneProg) Init(env sim.Env) {}

// val returns the deterministic payload for (round, port), or 0 for nil.
func (p *laneProg) val(r, q int) uint64 {
	switch r % 5 {
	case 0: // all nil
		return 0
	case 1: // odd ports only
		if q%2 == 0 {
			return 0
		}
	case 3: // only port 0
		if q != 0 {
			return 0
		}
	}
	v := p.state ^ uint64(r)<<32 ^ uint64(q)
	return v%1000 + 1
}

func (p *laneProg) fold(q int, v uint64) {
	if v == 0 {
		p.state += uint64(q) + 0xbeef
		return
	}
	p.state += v * (uint64(q) + 3)
}

func (p *laneProg) Send(r int) []sim.Message {
	if p.out == nil {
		p.out = make([]sim.Message, p.deg)
	}
	for q := range p.out {
		if v := p.val(r, q); v != 0 {
			p.out[q] = sizedVal(v)
		} else {
			p.out[q] = nil
		}
	}
	return p.out
}

func (p *laneProg) Recv(r int, msgs []sim.Message) {
	for q, m := range msgs {
		if m == nil {
			p.fold(q, 0)
		} else {
			p.fold(q, uint64(m.(sizedVal)))
		}
	}
}

func (p *laneProg) Output() any { return p.state }

func (p *laneProg) WireWords(r int) int {
	if r%5 == 4 {
		return 0 // boxed round in the middle of the schedule
	}
	return 2
}

func (p *laneProg) SendWire(r int, out []uint64) (msgs, bytes int64, ok bool) {
	// Live lanes stamp the round into word 0 (idle lanes are skipped by
	// the engine and leave stale slot bytes, which the stamp lets the
	// decoder reject — the sparse-round convention of WirePortProgram).
	hdr := uint64(r)<<1 | 1
	for q := 0; q < p.deg; q++ {
		v := p.val(r, q)
		if v == 0 {
			out[2*q] = 0
			continue
		}
		out[2*q], out[2*q+1] = hdr, v
		msgs++
		bytes += int64(sizedVal(v).WireSize())
	}
	return msgs, bytes, true
}

func (p *laneProg) RecvWire(r int, in []uint64) {
	hdr := uint64(r)<<1 | 1
	for q := 0; q < p.deg; q++ {
		if in[2*q] != hdr {
			p.fold(q, 0)
		} else {
			p.fold(q, in[2*q+1])
		}
	}
}

// TestWireStatsParity pins the wire path's observable equivalence where
// it is easiest to get wrong: Stats.Messages and Stats.Bytes must be
// bit-identical between the wire and boxed paths on every barrier
// engine — including rounds where every message is nil, rounds with a
// mix, and mid-schedule boxed rounds — and both must match the CSP
// oracle.  Outputs are compared too.  The algorithm packages get the
// same treatment through the equivalence matrices (equiv_test.go); this
// test isolates the accounting with a program built to stress it.
func TestWireStatsParity(t *testing.T) {
	tops := map[string]*graph.G{
		"grid-7x5":     graph.Grid(7, 5),
		"powerlaw-60":  graph.PowerLaw(60, 3, 5),
		"regular-48-4": graph.RandomRegular(48, 4, 6),
	}
	const rounds = 17
	for name, g := range tops {
		t.Run(name, func(t *testing.T) {
			run := func(opt sim.Options) ([]uint64, sim.Stats) {
				progs := make([]sim.PortProgram, g.N())
				nodes := make([]*laneProg, g.N())
				for v := range progs {
					nodes[v] = &laneProg{deg: g.Deg(v), state: uint64(v)*2654435761 + 1}
					progs[v] = nodes[v]
				}
				stats, err := sim.RunPort(g, progs, rounds, opt)
				if err != nil {
					t.Fatal(err)
				}
				outs := make([]uint64, g.N())
				for v := range outs {
					outs[v] = nodes[v].state
				}
				return outs, stats
			}
			refOut, refStats := run(sim.Options{Engine: sim.CSP})
			if refStats.Messages == 0 || refStats.Bytes == 0 {
				t.Fatal("degenerate reference run: no traffic counted")
			}
			for _, ev := range []struct {
				name string
				opt  sim.Options
			}{
				{"sequential-wire", sim.Options{Engine: sim.Sequential}},
				{"sequential-boxed", sim.Options{Engine: sim.Sequential, NoWire: true}},
				// parallel-* labels: see engineVariants.
				{"parallel-3-wire", sim.Options{Engine: sim.Sharded, Workers: 3}},
				{"parallel-3-boxed", sim.Options{Engine: sim.Sharded, Workers: 3, NoWire: true}},
				{"sharded-2-wire", sim.Options{Engine: sim.Sharded, Workers: 2}},
				{"sharded-4-wire", sim.Options{Engine: sim.Sharded, Workers: 4}},
				{"sharded-4-boxed", sim.Options{Engine: sim.Sharded, Workers: 4, NoWire: true}},
			} {
				t.Run(ev.name, func(t *testing.T) {
					out, stats := run(ev.opt)
					if stats.Rounds != refStats.Rounds || stats.Messages != refStats.Messages ||
						stats.Bytes != refStats.Bytes {
						t.Fatalf("stats diverge from CSP oracle: %+v != %+v", stats, refStats)
					}
					for v := range refOut {
						if out[v] != refOut[v] {
							t.Fatalf("node %d state %x != %x", v, out[v], refOut[v])
						}
					}
				})
			}
		})
	}
}

// overflowProg reports an unencodable value at a chosen round.
type overflowProg struct {
	laneProg
	failAt int
}

func (p *overflowProg) SendWire(r int, out []uint64) (int64, int64, bool) {
	if r == p.failAt {
		return 0, 0, false
	}
	return p.laneProg.SendWire(r, out)
}

// TestWireOverflow: a SendWire that cannot encode its value must abort
// the run with ErrWireOverflow at the send barrier, on every barrier
// engine; rerunning the same programs boxed succeeds.
func TestWireOverflow(t *testing.T) {
	g := graph.Grid(5, 5)
	for _, opt := range []sim.Options{
		{Engine: sim.Sequential},
		{Engine: sim.Sharded, Workers: 3},
		{Engine: sim.Sharded, Workers: 4},
	} {
		t.Run(fmt.Sprintf("%v-%d", opt.Engine, opt.Workers), func(t *testing.T) {
			progs := make([]sim.PortProgram, g.N())
			for v := range progs {
				progs[v] = &overflowProg{laneProg: laneProg{deg: g.Deg(v)}, failAt: 3}
			}
			_, err := sim.RunPort(g, progs, 10, opt)
			if err != sim.ErrWireOverflow {
				t.Fatalf("err = %v, want ErrWireOverflow", err)
			}
			// The documented recovery: rebuild and rerun boxed.
			for v := range progs {
				progs[v] = &overflowProg{laneProg: laneProg{deg: g.Deg(v)}, failAt: 3}
			}
			boxed := opt
			boxed.NoWire = true
			if _, err := sim.RunPort(g, progs, 10, boxed); err != nil {
				t.Fatalf("boxed rerun failed: %v", err)
			}
		})
	}
}
