package dist_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/dist"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// densePort holds a port program as a named field, so the shard step
// runs it in every round even when the program is a Sleeper.  It keeps
// the program's wire lanes.
type densePort struct{ p sim.WirePortProgram }

func (d densePort) Init(env sim.Env)               {}
func (d densePort) Send(r int) []sim.Message       { return d.p.Send(r) }
func (d densePort) Recv(r int, msgs []sim.Message) { d.p.Recv(r, msgs) }
func (d densePort) Output() any                    { return d.p.Output() }
func (d densePort) WireWords(r int) int            { return d.p.WireWords(r) }
func (d densePort) RecvWire(r int, in []uint64)    { d.p.RecvWire(r, in) }
func (d densePort) SendWire(r int, out []uint64) (int64, int64, bool) {
	return d.p.SendWire(r, out)
}

// countBcast holds a broadcast program as a named field, so the shard
// step runs it in every round even when the program is a Sleeper, and
// counts its receives across the fleet's shard goroutines.
type countBcast struct {
	p     sim.BroadcastProgram
	recvs *atomic.Int64
}

func (c countBcast) Init(env sim.Env)       {}
func (c countBcast) Send(r int) sim.Message { return c.p.Send(r) }
func (c countBcast) Output() any            { return c.p.Output() }
func (c countBcast) Recv(r int, msgs []sim.Message) {
	c.recvs.Add(1)
	c.p.Recv(r, msgs)
}

// sleepyBcast is countBcast that forwards the program's sleep promise.
type sleepyBcast struct{ countBcast }

func (s sleepyBcast) SleepUntil(r int) int { return s.p.(sim.Sleeper).SleepUntil(r) }

// TestClusterSleepFrames: on the fleet, a run whose nodes sleep sends
// exactly the data frames and data bytes of the same run stepped
// densely, and ends with the same outputs and Stats — edge packing,
// whose nodes sleep through the star rounds, on the wire path (a 40×40
// grid) and the boxed one (a Δ=12 power-law graph), and fractional
// packing on the broadcast path, whose sleeping run must also skip
// node steps.
func TestClusterSleepFrames(t *testing.T) {
	t.Run("fracpack-40x70", func(t *testing.T) {
		ins := bipartite.Random(40, 70, 3, 6, 1000, 5)
		params := sim.BipartiteParams(ins)
		envs := sim.BipartiteEnvs(ins, params)
		rounds := fracpack.Rounds(params)
		run := func(sleeping bool) ([]string, sim.Stats, dist.Snapshot, int64) {
			cl := dist.NewCluster(2)
			var recvs atomic.Int64
			progs := make([]sim.BroadcastProgram, ins.N())
			for v := range progs {
				var p sim.BroadcastProgram = fracpack.NewElement(envs[v])
				if ins.IsSubset(v) {
					p = fracpack.NewSubset(envs[v])
				}
				progs[v] = countBcast{p, &recvs}
				if sleeping {
					progs[v] = sleepyBcast{countBcast{p, &recvs}}
				}
			}
			st, err := sim.RunBroadcast(ins, progs, rounds, sim.Options{Engine: sim.Distributed, Dist: cl})
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]string, len(progs))
			for v, p := range progs {
				outs[v] = fmt.Sprint(p.Output())
			}
			return outs, st, cl.Metrics().SnapshotNow(), recvs.Load()
		}
		ref, refStats, refMx, refRecvs := run(false)
		got, st, mx, recvs := run(true)
		if st.Messages != refStats.Messages || st.Bytes != refStats.Bytes {
			t.Fatalf("stats %+v, dense %+v", st, refStats)
		}
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("node %d output %s, dense %s", v, got[v], ref[v])
			}
		}
		if mx.LaneFrames != 0 || mx.BoxedFrames != refMx.BoxedFrames || mx.BoxedBytes != refMx.BoxedBytes || mx.BoxedFrames == 0 {
			t.Fatalf("data frames (lane %d, boxed %d/%d B), dense (lane %d, boxed %d/%d B)",
				mx.LaneFrames, mx.BoxedFrames, mx.BoxedBytes, refMx.LaneFrames, refMx.BoxedFrames, refMx.BoxedBytes)
		}
		if want := int64(rounds * ins.N()); refRecvs != want || recvs >= refRecvs {
			t.Fatalf("sleeping run made %d receives, dense %d (want %d): nothing slept", recvs, refRecvs, want)
		}
		t.Logf("boxed %d frames / %d B; %d of %d receives", mx.BoxedFrames, mx.BoxedBytes, recvs, refRecvs)
	})

	grid := graph.Grid(40, 40)
	graph.RandomWeights(grid, 1000, 3)
	pl := graph.PowerLawBounded(300, 3, 12, 5)
	graph.RandomWeights(pl, 1000, 6)
	for _, c := range []struct {
		name string
		g    *graph.G
		lane bool
	}{{"grid-40x40", grid, true}, {"powerlaw-d12", pl, false}} {
		t.Run(c.name, func(t *testing.T) {
			params := sim.GraphParams(c.g)
			envs := sim.GraphEnvs(c.g, params)
			rounds := edgepack.Rounds(params)
			run := func(sleeping bool) ([]string, sim.Stats, dist.Snapshot) {
				cl := dist.NewCluster(2)
				progs := make([]sim.PortProgram, c.g.N())
				for v := range progs {
					p := edgepack.New(envs[v])
					progs[v] = p
					if !sleeping {
						progs[v] = densePort{p}
					}
				}
				st, err := sim.RunPort(c.g, progs, rounds, sim.Options{Engine: sim.Distributed, Dist: cl})
				if err != nil {
					t.Fatal(err)
				}
				outs := make([]string, len(progs))
				for v, p := range progs {
					outs[v] = fmt.Sprint(p.Output())
				}
				return outs, st, cl.Metrics().SnapshotNow()
			}
			ref, refStats, refMx := run(false)
			got, st, mx := run(true)
			if st.Messages != refStats.Messages || st.Bytes != refStats.Bytes {
				t.Fatalf("stats %+v, dense %+v", st, refStats)
			}
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("node %d output %s, dense %s", v, got[v], ref[v])
				}
			}
			if mx.LaneFrames != refMx.LaneFrames || mx.BoxedFrames != refMx.BoxedFrames ||
				mx.LaneBytes != refMx.LaneBytes || mx.BoxedBytes != refMx.BoxedBytes {
				t.Fatalf("data frames (lane %d/%d B, boxed %d/%d B), dense (lane %d/%d B, boxed %d/%d B)",
					mx.LaneFrames, mx.LaneBytes, mx.BoxedFrames, mx.BoxedBytes,
					refMx.LaneFrames, refMx.LaneBytes, refMx.BoxedFrames, refMx.BoxedBytes)
			}
			if c.lane != (mx.LaneFrames > 0) || mx.BoxedFrames == 0 {
				t.Fatalf("lane frames %d, boxed frames %d: not the delivery paths this row is for",
					mx.LaneFrames, mx.BoxedFrames)
			}
			t.Logf("lane %d frames / %d B, boxed %d frames / %d B", mx.LaneFrames, mx.LaneBytes, mx.BoxedFrames, mx.BoxedBytes)
		})
	}
}
