package edgepack

import (
	"fmt"
	"testing"

	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// dense holds a Program as a named field, so it does not inherit the
// Program's SleepUntil and the kernel steps it in every round.  It is
// the dense reference a sleeping run is held to.
type dense struct{ p *Program }

func (d dense) Init(env sim.Env)               {}
func (d dense) Send(r int) []sim.Message       { return d.p.Send(r) }
func (d dense) Recv(r int, msgs []sim.Message) { d.p.Recv(r, msgs) }
func (d dense) Output() any                    { return d.p.Output() }
func (d dense) WireWords(r int) int            { return d.p.WireWords(r) }
func (d dense) RecvWire(r int, in []uint64)    { d.p.RecvWire(r, in) }
func (d dense) SendWire(r int, out []uint64) (int64, int64, bool) {
	return d.p.SendWire(r, out)
}

var _ sim.WirePortProgram = dense{}

// runAs is Run without the overflow rerun, with the programs stepped as
// themselves (sleeping) or through dense.
func runAs(t testing.TB, g *graph.G, opt Options, sleeping bool) *Result {
	params := sim.GraphParams(g)
	if opt.Delta != 0 {
		params.Delta = opt.Delta
	}
	if opt.W != 0 {
		params.W = opt.W
	}
	envs := sim.GraphEnvs(g, params)
	rounds := Rounds(params)
	noWire := opt.NoWire
	if opt.NodeParams != nil {
		rounds = 0
		for v := range envs {
			envs[v].Params = opt.NodeParams[v]
			rounds = max(rounds, Rounds(opt.NodeParams[v]))
			noWire = noWire || opt.NodeParams[v] != opt.NodeParams[0]
		}
	}
	var nodes []*Program
	if opt.Programs != nil {
		nodes = opt.Programs.Get(envs)
		defer opt.Programs.Put(nodes)
	} else {
		nodes = make([]*Program, g.N())
		for v := range nodes {
			nodes[v] = New(envs[v])
		}
	}
	progs := make([]sim.PortProgram, g.N())
	for v, p := range nodes {
		if sleeping {
			progs[v] = p
		} else {
			progs[v] = dense{p}
		}
	}
	top := sim.Topology(g)
	if opt.Topology != nil {
		top = opt.Topology
	}
	stats, err := sim.RunPort(top, progs, rounds, sim.Options{
		Engine: opt.Engine, Workers: opt.Workers, Dist: opt.Dist, Pool: opt.Pool, NoWire: noWire,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]NodeResult, g.N())
	for v := range outs {
		outs[v] = nodes[v].Output().(NodeResult)
	}
	res, err := AssembleResult(g, outs, rounds, stats)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSleepMatchesDense: a sleeping run equals the dense run of the same
// programs in packing, cover and Stats, on the wire path (a 40×40 grid)
// and the boxed one (a Δ=12 power-law graph, which the wire gate keeps
// boxed), at one, two and three shards, and on a batched union whose
// components carry their own parameters.
func TestSleepMatchesDense(t *testing.T) {
	grid := graph.Grid(40, 40)
	graph.RandomWeights(grid, 1000, 3)
	pl := graph.PowerLawBounded(400, 3, 12, 5)
	graph.RandomWeights(pl, 1000, 6)
	for _, c := range []struct {
		name string
		g    *graph.G
		opt  Options
	}{
		{"grid-40x40", grid, Options{}},
		{"grid-40x40-boxed", grid, Options{NoWire: true}},
		{"powerlaw-d12", pl, Options{Delta: 12, W: 1000}},
	} {
		for _, k := range []int{1, 2, 3} {
			opt := c.opt
			if k > 1 {
				opt.Engine, opt.Workers = sim.Sharded, k
			}
			t.Run(fmt.Sprintf("%s/shards-%d", c.name, k), func(t *testing.T) {
				mustEqualResults(t, runAs(t, c.g, opt, false), runAs(t, c.g, opt, true))
			})
		}
	}
	t.Run("batched", func(t *testing.T) {
		parts := []*graph.G{graph.Grid(5, 6), graph.PowerLawBounded(60, 2, 7, 8), graph.Path(9)}
		for i, g := range parts {
			graph.RandomWeights(g, int64(20*(i+1)), int64(i+11))
		}
		u := graph.DisjointUnion(parts)
		np := make([]sim.Params, u.G.N())
		for i, g := range parts {
			lo, hi := u.Nodes(i)
			for v := lo; v < hi; v++ {
				np[v] = sim.GraphParams(g)
			}
		}
		opt := Options{NodeParams: np}
		ref := runAs(t, u.G, opt, false)
		mustEqualResults(t, ref, runAs(t, u.G, opt, true))
		mustEqualResults(t, ref, MustRun(u.G, opt))
	})
}
