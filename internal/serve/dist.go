package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anoncover"
	"anoncover/internal/check"
	"anoncover/internal/dist"
	"anoncover/internal/graph"
)

// Distributed serving: when Config.WorkerAddrs is set, the server is
// the coordinator of a worker fleet (anoncoverd -worker processes) and
// every vertex-cover cache entry is a fleetVC.  One entry per
// fingerprint holds two lazily compiled halves over the same graph: a
// dist.Session that ships per-worker shard plans once and runs across
// the fleet, and a local anoncover.Solver.  Plain port-model requests
// run on the fleet half; broadcast, engine overrides and progress
// streams, fleet faults and an open breaker run on the local half.
// The algorithms are deterministic in the port-numbering model, so
// both halves return bit-identical covers, which is what lets a fleet
// fault be answered by a local re-run.

// fleetVC is the fleet-backed vertex-cover session: the failover
// decorator over a fleet half and a local half.
type fleetVC struct {
	s *Server
	g *graph.G // the uploaded topology; both halves compile over it

	wmu     sync.Mutex
	weights []int64 // the entry's snapshot, global node order

	// fmu serializes the fleet half: compile, weight install and run
	// (the fleet executes one run per session at a time; the mutex
	// turns concurrent requests into a queue instead of worker-side
	// rejections).
	fmu    sync.Mutex
	fleet  atomic.Pointer[dist.Session]
	fleetW []int64 // the weights the fleet holds

	lmu   sync.Mutex
	local *anoncover.Solver
}

func newFleetVC(s *Server, g *graph.G) *fleetVC {
	return &fleetVC{s: s, g: g, weights: g.Weights()}
}

// Close closes whichever halves were compiled.
func (f *fleetVC) Close() error {
	if d := f.fleet.Load(); d != nil {
		d.Close()
	}
	if f.local != nil {
		f.local.Close()
	}
	return nil
}

// Weights returns the entry's current snapshot vector.
func (f *fleetVC) Weights() []int64 {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	return append([]int64(nil), f.weights...)
}

// UpdateWeights validates and records a new snapshot.  No half is
// touched: the fleet half installs the vector before its next run and
// the local half runs with it pinned, so a request the fleet never
// serves never reaches it.
func (f *fleetVC) UpdateWeights(w []int64) error {
	if len(w) != f.g.N() {
		return fmt.Errorf("%d weights for %d nodes", len(w), f.g.N())
	}
	for i, x := range w {
		if x <= 0 {
			return fmt.Errorf("non-positive weight %d at node %d", x, i)
		}
	}
	f.wmu.Lock()
	f.weights = append([]int64(nil), w...)
	f.wmu.Unlock()
	return nil
}

// run routes one request to a half.  A dist-eligible request the
// breaker admits runs on the fleet; the breaker is settled by that
// call's verdict.  A fleet fault while the request's own context is
// live re-runs on the local half, labelled dist_failover.  Everything
// else runs on the local half directly.
func (f *fleetVC) run(ctx context.Context, p runParams, w []int64, obs func(anoncover.RoundInfo)) (ran, error) {
	if !p.distEligible() || !f.s.brk.allow() {
		return f.runLocal(ctx, p, w, obs)
	}
	traceFrom(ctx).setEngine("distributed")
	out, err := f.runFleet(ctx, p, w)
	f.s.brk.settle(err)
	if err == nil || !dist.Transient(err) || ctx.Err() != nil {
		return out, err
	}
	f.s.ctrs.DistFailovers.Add(1)
	out, err = f.runLocal(ctx, p, w, obs)
	out.failover = true
	return out, err
}

// fleetHalfLocked returns the fleet half, compiling it on first need;
// the caller holds fmu.
func (f *fleetVC) fleetHalfLocked(ctx context.Context) (*dist.Session, error) {
	if d := f.fleet.Load(); d != nil {
		return d, nil
	}
	d, err := compileTimed(ctx, f.s, func() (*dist.Session, error) { return f.s.coord.CompileVC(f.g) })
	if err != nil {
		return nil, err
	}
	f.fleet.Store(d)
	f.fleetW = f.g.Weights()
	return d, nil
}

// localHalf returns the local half, compiling it on first need.
func (f *fleetVC) localHalf(ctx context.Context) (*anoncover.Solver, error) {
	f.lmu.Lock()
	defer f.lmu.Unlock()
	if f.local == nil {
		sol, err := compileTimed(ctx, f.s, func() (*anoncover.Solver, error) {
			return anoncover.Compile(anoncover.WrapGraph(f.g), f.s.sessionOpts()...)
		})
		if err != nil {
			return nil, err
		}
		f.local = sol
	}
	return f.local, nil
}

// runFleet installs w when the fleet holds other weights and runs.
// Every error it returns came from a fleet call.
func (f *fleetVC) runFleet(ctx context.Context, p runParams, w []int64) (ran, error) {
	f.fmu.Lock()
	defer f.fmu.Unlock()
	d, err := f.fleetHalfLocked(ctx)
	if err != nil {
		return ran{}, err
	}
	if !slices.Equal(f.fleetW, w) {
		if err := d.UpdateVCWeights(w); err != nil {
			return ran{}, fmt.Errorf("updating weights: %w", err)
		}
		f.fleetW = append([]int64(nil), w...)
	}
	tr := traceFrom(ctx)
	t0 := time.Now()
	res, err := d.VertexCover(ctx, dist.RunOptions{
		ScrambleSeed: p.scramble, RoundBudget: p.budget,
		TraceOff: p.traceOff, TraceEvery: p.traceEvery, Tag: tr.runID(),
	})
	tr.mark(phaseRun, time.Since(t0))
	// Stash whatever trace the fleet produced — success or abort — so
	// GET /v1/runs/{id}/trace works for failed runs too.  The ID check
	// guards against picking up a stale trace from an earlier request
	// when this run died before the fleet recorded anything.
	if rt := d.LastTrace(); rt != nil && rt.ID != "" && rt.ID == tr.runID() {
		f.s.traces.put(rt)
		tr.setTrace()
	}
	if err != nil {
		return ran{}, err
	}
	gv := d.Graph() // the weight view the run used
	return ran{
		algo: "vertexcover", n: gv.N(), m: gv.M(),
		cover: res.Cover, weight: res.CoverWeight(gv),
		rounds: res.Rounds, messages: res.Stats.Messages, bytes: res.Stats.Bytes,
		verify: func() error { return check.VCResult(gv, res.Y, res.Cover) },
	}, nil
}

// runLocal runs on the local half.
func (f *fleetVC) runLocal(ctx context.Context, p runParams, w []int64, obs func(anoncover.RoundInfo)) (ran, error) {
	sol, err := f.localHalf(ctx)
	if err != nil {
		return ran{}, err
	}
	return localVC{sol}.run(ctx, p, w, obs)
}

// warm compiles the half a plain port-model request would run on: the
// fleet half while the breaker admits it and the fleet answers, the
// local half otherwise.
func (f *fleetVC) warm(ctx context.Context) error {
	if f.s.brk.allow() {
		f.fmu.Lock()
		_, err := f.fleetHalfLocked(ctx)
		f.fmu.Unlock()
		f.s.brk.settle(err)
		if err == nil || !dist.Transient(err) {
			return err
		}
	}
	_, err := f.localHalf(ctx)
	return err
}

// distEligible reports whether a request can execute on the fleet: a
// plain port-model run with no engine override and no progress stream
// (the distributed barrier has no per-round observer hook).  Other
// requests run on a fleet entry's local half with bit-identical
// results.
func (p *runParams) distEligible() bool {
	return p.model == "port" && len(p.engine) == 0 && p.progress == ""
}

// distStats is the /v1/stats block reporting the worker fleet: health
// of every worker (the background prober's latest snapshot, or a live
// probe when none has run), cached entries with a compiled fleet half,
// the local failover count, the circuit breaker state, and the
// coordinator's transport counters.
type distStats struct {
	Workers   []dist.WorkerHealth `json:"workers"`
	Sessions  int                 `json:"sessions"`
	Failovers int64               `json:"failovers"`
	Breaker   string              `json:"breaker"`
	Transport dist.Snapshot       `json:"transport"`
}

func (s *Server) distStats() *distStats {
	if s.coord == nil {
		return nil
	}
	workers, _, ok := s.coord.LastHealth()
	if !ok {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		workers = s.coord.Health(ctx)
	}
	return &distStats{
		Workers: workers,
		Sessions: s.vc.count(func(sess session) bool {
			f, ok := sess.(*fleetVC)
			return ok && f.fleet.Load() != nil
		}),
		Failovers: s.ctrs.DistFailovers.Load(),
		Breaker:   s.brk.stateName(),
		Transport: s.coord.Metrics().SnapshotNow(),
	}
}
