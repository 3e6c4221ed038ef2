package dist_test

import (
	"fmt"
	"testing"

	"anoncover/internal/core/edgepack"
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

// TestClusterSleepFrames: on the fleet, a run whose edge-packing nodes
// sleep through the star rounds sends exactly the data frames and data
// bytes of the same run stepped densely, and ends with the same
// outputs and Stats — on the wire path (a 40×40 grid) and the boxed one
// (a Δ=12 power-law graph).
func TestClusterSleepFrames(t *testing.T) {
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
