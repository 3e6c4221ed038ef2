package serve

import (
	"context"
	"time"

	"anoncover"
)

// session is one compiled topology as the serve path sees it, whatever
// executes it: a local vertex-cover solver, a set-cover solver, or a
// fleet-backed vertex-cover entry (dist.go).  The cache holds sessions;
// the memo → coalesce → run loop drives them through run.
type session interface {
	Close() error
	// UpdateWeights installs a new snapshot; Weights returns the
	// current one.
	UpdateWeights([]int64) error
	Weights() []int64
	// run executes the request's algorithm with weights pinned,
	// marking its run (and any lazy compile) on the request trace.
	run(ctx context.Context, p runParams, weights []int64, obs func(anoncover.RoundInfo)) (ran, error)
}

// ran is one finished run in the terms every kind shares; exec turns
// it into the kind's response.
type ran struct {
	algo     string
	n, m     int // vertices and edges, or subsets and elements
	cover    []bool
	weight   int64
	rounds   int
	sched    int // set cover's scheduled rounds
	messages int64
	bytes    int64
	verify   func() error // the run's duality-certificate check
	failover bool         // a fleet fault moved the run to a local solver
}

// compileTimed counts and times one compile on the request trace.
func compileTimed[T any](ctx context.Context, s *Server, compile func() (T, error)) (T, error) {
	s.ctrs.Compiles.Add(1)
	t0 := time.Now()
	sol, err := compile()
	traceFrom(ctx).mark(phaseCompile, time.Since(t0))
	return sol, err
}

// localVC is a vertex-cover session on the local engines; it serves
// both the port and the broadcast model.
type localVC struct{ *anoncover.Solver }

func (l localVC) run(ctx context.Context, p runParams, w []int64, obs func(anoncover.RoundInfo)) (ran, error) {
	run := l.VertexCover
	if p.model == "broadcast" {
		run = l.VertexCoverBroadcast
	}
	t0 := time.Now()
	res, err := run(ctx, p.options(w, obs)...)
	traceFrom(ctx).mark(phaseRun, time.Since(t0))
	if err != nil {
		return ran{}, err
	}
	return ran{
		algo: p.algo("vertexcover"), n: len(res.Cover), m: len(res.Packing),
		cover: res.Cover, weight: res.Weight, rounds: res.Rounds,
		messages: res.Messages, bytes: res.Bytes, verify: res.Verify,
	}, nil
}

// setCoverSession is a set-cover session on the local engines.
type setCoverSession struct{ *anoncover.SetCoverSolver }

func (sc setCoverSession) run(ctx context.Context, p runParams, w []int64, obs func(anoncover.RoundInfo)) (ran, error) {
	t0 := time.Now()
	res, err := sc.SetCover(ctx, p.options(w, obs)...)
	traceFrom(ctx).mark(phaseRun, time.Since(t0))
	if err != nil {
		return ran{}, err
	}
	return ran{
		algo: "setcover", n: len(res.Cover), m: len(res.Packing),
		cover: res.Cover, weight: res.Weight, rounds: res.Rounds, sched: res.ScheduledRounds,
		messages: res.Messages, bytes: res.Bytes, verify: res.Verify,
	}, nil
}
