package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"anoncover"
	"anoncover/internal/bipartite"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/graph"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// Library workloads: two tenants, each a compiled session on
// EngineSequential over its own instance, the large one twice the size
// of the small one.  A round is four ops on the small tenant and one on
// the large one; every op installs a fresh weight vector and runs the
// algorithm.  The mix puts the median inside the small tenant's ops and
// p90 in the middle of the large tenant's, so neither sits in the few
// ops that interference on a shared machine slows down.

const (
	vcN, vcAttach, vcDelta = 1000, 3, 12
	maxW                   = 1000
	scS, scU, scF, scK     = 40, 70, 3, 6
	smallOpsPerRound       = 4
)

// edgepackSegment names the Section 3 schedule segment of a round.
func edgepackSegment(delta int, w int64) func(round int) string {
	sched := edgepack.ScheduleFor(sim.Params{Delta: delta, W: w})
	names := [...]string{"edgepack.phase1_ms", "edgepack.cv_ms", "edgepack.shift_ms", "edgepack.stars_ms"}
	return func(r int) string {
		seg, _ := sched.Locate(r)
		return names[seg]
	}
}

// fracpackSegment splits the Section 4 schedule: each of the (k-1)f+1
// iterations opens with 5 saturation rounds per colour class, and the
// rest of the iteration is the colouring phase.
func fracpackSegment(f, k int, w int64) func(round int) string {
	iters := (k-1)*f + 1
	perIter := anoncover.PredictedSetCoverRounds(f, k, w) / iters
	sat := 5 * iters
	return func(r int) string {
		if (r-1)%perIter < sat {
			return "fracpack.saturation_ms"
		}
		return "fracpack.colouring_ms"
	}
}

// smallVC runs the library on a brute-forceable instance and checks the
// 2-approximation against the true optimum.
func smallVC(seed int64, solve func(g *vcInst, w []int64) ([]bool, int64, error)) error {
	rng := newRNG(seed, 99)
	g := powerLawInst(rng, 16, 2, 5)
	w := randWeights(rng, g.n, 50)
	cover, wc, err := solve(g, w)
	if err != nil {
		return fmt.Errorf("small instance: %w", err)
	}
	if err := checkVCCover(g, w, cover, wc); err != nil {
		return fmt.Errorf("small instance: %w", err)
	}
	return checkApprox(wc, bruteVC(g, w), 2)
}

// libVC solves g with the library's Sequential engine and checks the
// packing; it is also the reference the service workloads compare to.
func libVC(g *vcInst, w []int64) (*anoncover.VertexCoverResult, error) {
	ag, err := anoncover.ReadGraph(bytes.NewReader(g.text(w)))
	if err != nil {
		return nil, err
	}
	s, err := anoncover.Compile(ag, anoncover.WithEngine(anoncover.EngineSequential))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.VertexCover(context.Background())
	if err != nil {
		return nil, err
	}
	if err := checkVCCover(g, w, res.Cover, res.Weight); err != nil {
		return nil, err
	}
	if err := checkVCPacking(g, w, res.Cover, res.Packing); err != nil {
		return nil, err
	}
	if err := checkRounds(res.Rounds, anoncover.PredictedVertexCoverRounds(g.maxDeg(), maxWeight(w))); err != nil {
		return nil, err
	}
	return res, nil
}

// libSession is a compiled library session as the library workloads
// drive it.
type libSession interface {
	UpdateWeights(w []int64) error
	Close() error
}

// libRun is one library run's outcome; check verifies it and returns
// the benchmark's lower bound on OPT for the ratio.
type libRun struct {
	rounds int
	bytes  int64
	weight int64
	check  func() (lower int64, err error)
}

// tenant is one instance of a library workload and its session.
type tenant[S libSession] struct {
	class string  // "small" or "large", for the per-class summary
	w0    []int64 // the weights the instance text carries
	nodes int     // simulator nodes, for sim.ns_per_node_round
	// open decodes and compiles the instance, timing both into sp.
	open func(sp spans) (S, error)
	// solve runs the session once against weights w (the session's
	// current snapshot) with extra run options.
	solve func(s S, w []int64, opts ...anoncover.Option) (libRun, error)
	s     S
	wrng  *rand.Rand // fresh weight vectors
}

// runLib sets both tenants up setupReps times (decode, compile and one
// warm-up run each), then runs whole rounds.  Ops run in batches
// between kernel samples: two small ops, two small ops, the large op.
func runLib[S libSession](b *bench, rounds int, seg func(round int) string, small, large *tenant[S]) error {
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			small.s.Close()
			large.s.Close()
		}
		err := b.setup(func(sp spans) error {
			for _, t := range []*tenant[S]{small, large} {
				var err error
				if t.s, err = t.open(sp); err != nil {
					return err
				}
				err = sp.time("warmup_ms", func() error {
					_, err := t.solve(t.s, t.w0)
					return err
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	defer small.s.Close()
	defer large.s.Close()

	return b.phase(func(traced bool) error {
		for i := 0; i <= smallOpsPerRound; i++ {
			t := small
			if i == smallOpsPerRound {
				t = large
			}
			libOp(b, traced, rounds, seg, t)
			if i%2 == 1 || t == large {
				b.quiesce()
			}
		}
		return nil
	})
}

// libOp times one op on tenant t: a fresh weight vector, then a run.
func libOp[S libSession](b *bench, traced bool, rounds int, seg func(round int) string, t *tenant[S]) {
	w := randWeights(t.wrng, len(t.w0), maxW)
	var res libRun
	rc := newRoundClock(rounds)
	b.op(traced, func(sp spans) error {
		if err := sp.time("anoncover.update_weights_ms", func() error { return t.s.UpdateWeights(w) }); err != nil {
			return err
		}
		var opts []anoncover.Option
		if traced {
			opts = append(opts, anoncover.WithObserver(rc.observe))
			rc.start = time.Now()
		}
		var err error
		res, err = t.solve(t.s, w, opts...)
		rc.end = time.Now()
		return err
	}, func() error {
		lower, err := res.check()
		if err == nil {
			b.ratio(res.weight, lower)
		}
		return err
	}, func(rec opRec) {
		b.executed(res.rounds, res.bytes)
		if traced {
			b.led.addRounds(rc, rec.factor, t.nodes, seg)
		} else {
			b.byClass[t.class] = append(b.byClass[t.class], rec.cal)
		}
	})
}

// vcTenant is a vertex-cover tenant over g.
func vcTenant(class string, g *vcInst, w0 []int64, wrng *rand.Rand) *tenant[*anoncover.Solver] {
	text := g.text(w0)
	want := anoncover.PredictedVertexCoverRounds(vcDelta, maxW)
	return &tenant[*anoncover.Solver]{
		class: class, w0: w0, nodes: g.n, wrng: wrng,
		open: func(sp spans) (s *anoncover.Solver, err error) {
			var ag *anoncover.Graph
			err = sp.time("graph.decode_ms", func() (err error) {
				ag, err = anoncover.ReadGraph(bytes.NewReader(text))
				return err
			})
			if err != nil {
				return nil, err
			}
			err = sp.time("anoncover.compile_ms", func() (err error) {
				s, err = anoncover.Compile(ag, anoncover.WithEngine(anoncover.EngineSequential),
					anoncover.WithDegreeBound(vcDelta), anoncover.WithWeightBound(maxW))
				return err
			})
			return s, err
		},
		solve: func(s *anoncover.Solver, w []int64, opts ...anoncover.Option) (libRun, error) {
			res, err := s.VertexCover(context.Background(), opts...)
			if err != nil {
				return libRun{}, err
			}
			return libRun{rounds: res.Rounds, bytes: res.Bytes, weight: res.Weight, check: func() (int64, error) {
				if err := checkVCCover(g, w, res.Cover, res.Weight); err != nil {
					return 0, err
				}
				if err := checkVCPacking(g, w, res.Cover, res.Packing); err != nil {
					return 0, err
				}
				return byeVC(g, w), checkRounds(res.Rounds, want)
			}}, nil
		},
	}
}

func runVCWeights(b *bench) error {
	rng := newRNG(b.seed, 1)
	g := powerLawInst(rng, vcN, vcAttach, vcDelta)
	small := vcTenant("small", g, randWeights(rng, g.n, maxW), newRNG(b.seed, 2))
	rng = newRNG(b.seed, 4)
	g2 := powerLawInst(rng, 2*vcN, vcAttach, vcDelta)
	large := vcTenant("large", g2, randWeights(rng, g2.n, maxW), newRNG(b.seed, 5))
	if err := smallVC(b.seed, func(g *vcInst, w []int64) ([]bool, int64, error) {
		res, err := libVC(g, w)
		if err != nil {
			return nil, 0, err
		}
		return res.Cover, res.Weight, nil
	}); err != nil {
		return err
	}
	if b.led != nil {
		if err := traceGraphSetup(b, g.text(small.w0), 0, false); err != nil {
			return err
		}
	}
	return runLib(b, anoncover.PredictedVertexCoverRounds(vcDelta, maxW), edgepackSegment(vcDelta, maxW), small, large)
}

// traceGraphSetup times, outside any set-up, the graph layers a set-up
// calls implicitly: decoding (when the set-up does not time it itself),
// fingerprinting, CSR flattening and, for shards > 0, partitioning.
// Each is timed between kernel samples into the ledger.
func traceGraphSetup(b *bench, text []byte, shards int, decode bool) error {
	ig, err := graph.Parse(bytes.NewReader(text))
	if err != nil {
		return err
	}
	var flat *graph.FlatTopology
	var steps []step
	if decode {
		steps = append(steps, step{"graph.decode_ms", func() error {
			_, err := anoncover.ReadGraph(bytes.NewReader(text))
			return err
		}})
	}
	steps = append(steps,
		step{"graph.fingerprint_ms", func() error { _ = ig.Fingerprint(); return nil }},
		step{"graph.flatten_ms", func() (err error) { flat, err = graph.Flatten(ig); return err }})
	if shards > 0 {
		steps = append(steps, step{"shard.build_ms", func() error {
			st := shard.BuildK(flat, shards)
			b.led.gauge["shard.cut_frac"] = float64(st.Part().CutEdges) / float64(ig.M())
			return nil
		}})
	}
	return b.standalone(steps)
}

// traceSCSetup is traceGraphSetup's set-cover analogue.
func traceSCSetup(b *bench, text []byte, decode bool) error {
	bi, err := bipartite.Parse(bytes.NewReader(text))
	if err != nil {
		return err
	}
	var steps []step
	if decode {
		steps = append(steps, step{"bipartite.decode_ms", func() error {
			_, err := anoncover.ReadSetCover(bytes.NewReader(text))
			return err
		}})
	}
	steps = append(steps, step{"bipartite.fingerprint_ms", func() error { _ = bi.Fingerprint(); return nil }})
	if !decode {
		// On the service the set-cover flattening is folded into the
		// graph layers of the pool's grid; here it is the only one.
		steps = append(steps, step{"graph.flatten_ms", func() (err error) { _, err = graph.Flatten(bi); return err }})
	}
	return b.standalone(steps)
}

// scTenant is a set-cover tenant over ins.
func scTenant(class string, ins *scInst, w0 []int64, wrng *rand.Rand) *tenant[*anoncover.SetCoverSolver] {
	text := ins.text(w0)
	want := anoncover.PredictedSetCoverRounds(scF, scK, maxW)
	f := ins.maxF()
	return &tenant[*anoncover.SetCoverSolver]{
		class: class, w0: w0, nodes: ins.s + ins.u, wrng: wrng,
		open: func(sp spans) (s *anoncover.SetCoverSolver, err error) {
			var ai *anoncover.SetCoverInstance
			err = sp.time("bipartite.decode_ms", func() (err error) {
				ai, err = anoncover.ReadSetCover(bytes.NewReader(text))
				return err
			})
			if err != nil {
				return nil, err
			}
			err = sp.time("anoncover.compile_ms", func() (err error) {
				s, err = anoncover.CompileSetCover(ai, anoncover.WithEngine(anoncover.EngineSequential),
					anoncover.WithSetCoverBounds(scF, scK), anoncover.WithWeightBound(maxW))
				return err
			})
			return s, err
		},
		solve: func(s *anoncover.SetCoverSolver, w []int64, opts ...anoncover.Option) (libRun, error) {
			res, err := s.SetCover(context.Background(), opts...)
			if err != nil {
				return libRun{}, err
			}
			return libRun{rounds: res.Rounds, bytes: res.Bytes, weight: res.Weight, check: func() (int64, error) {
				if err := checkSCCover(ins, w, res.Cover, res.Weight); err != nil {
					return 0, err
				}
				if err := checkSCPacking(ins, w, res.Cover, res.Packing, f); err != nil {
					return 0, err
				}
				return byeSC(ins, w), checkSCRounds(res.Rounds, res.ScheduledRounds, want)
			}}, nil
		},
	}
}

func runSCRandom(b *bench) error {
	rng := newRNG(b.seed, 1)
	ins := randomSCInst(rng, scS, scU, scF, scK)
	small := scTenant("small", ins, randWeights(rng, ins.s, maxW), newRNG(b.seed, 2))
	rng = newRNG(b.seed, 4)
	ins2 := randomSCInst(rng, 2*scS, 2*scU, scF, scK)
	large := scTenant("large", ins2, randWeights(rng, ins2.s, maxW), newRNG(b.seed, 5))
	if err := smallSC(b.seed, func(ins *scInst, w []int64) ([]bool, int64, error) {
		res, err := libSC(ins, w)
		if err != nil {
			return nil, 0, err
		}
		return res.Cover, res.Weight, nil
	}); err != nil {
		return err
	}
	if b.led != nil {
		if err := traceSCSetup(b, ins.text(small.w0), false); err != nil {
			return err
		}
	}
	return runLib(b, anoncover.PredictedSetCoverRounds(scF, scK, maxW), fracpackSegment(scF, scK, maxW), small, large)
}

// smallSC is smallVC's set-cover analogue: w(C) <= f·OPT.
func smallSC(seed int64, solve func(ins *scInst, w []int64) ([]bool, int64, error)) error {
	rng := newRNG(seed, 99)
	ins := randomSCInst(rng, 12, 16, 3, 4)
	w := randWeights(rng, ins.s, 50)
	cover, wc, err := solve(ins, w)
	if err != nil {
		return fmt.Errorf("small instance: %w", err)
	}
	if err := checkSCCover(ins, w, cover, wc); err != nil {
		return fmt.Errorf("small instance: %w", err)
	}
	return checkApprox(wc, bruteSC(ins, w), ins.maxF())
}

// libSC solves ins with the library's Sequential engine and checks the
// packing and schedule; the service workloads compare to it.
func libSC(ins *scInst, w []int64) (*anoncover.SetCoverResult, error) {
	ai, err := anoncover.ReadSetCover(bytes.NewReader(ins.text(w)))
	if err != nil {
		return nil, err
	}
	s, err := anoncover.CompileSetCover(ai, anoncover.WithEngine(anoncover.EngineSequential))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.SetCover(context.Background())
	if err != nil {
		return nil, err
	}
	if err := checkSCCover(ins, w, res.Cover, res.Weight); err != nil {
		return nil, err
	}
	if err := checkSCPacking(ins, w, res.Cover, res.Packing, ins.maxF()); err != nil {
		return nil, err
	}
	if err := checkSCRounds(res.Rounds, res.ScheduledRounds,
		anoncover.PredictedSetCoverRounds(ins.maxF(), ins.maxK(), maxWeight(w))); err != nil {
		return nil, err
	}
	return res, nil
}
