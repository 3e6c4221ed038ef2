package fracpack

import (
	"slices"
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/rational"
	"anoncover/internal/sim"
)

// TestSleepHintTables: the memoised hint tables give, from every round
// of an iteration, exactly the distance a linear scan of the step table
// finds to the next base step and to the next base, weak or reduce
// step, wrapping to the next iteration's first round.
func TestSleepHintTables(t *testing.T) {
	scan := func(lay layout, rr int, want func(stepKind) bool) int {
		for d := 1; rr+d < lay.perIter; d++ {
			if want(lay.steps[rr+d].kind) {
				return d
			}
		}
		return lay.perIter - rr
	}
	for _, p := range scheduleParams() {
		lay := newLayout(p)
		if lay.iters == 0 {
			continue
		}
		if !lay.steps[0].kind.base() {
			t.Fatalf("%+v: iteration opens with %v, not a base step", p, lay.steps[0].kind)
		}
		for rr := range lay.steps {
			if got, want := int(lay.toBase[rr]), scan(lay, rr, stepKind.base); got != want {
				t.Fatalf("%+v round %d: toBase %d, scan %d", p, rr, got, want)
			}
			if got, want := int(lay.toWork[rr]), scan(lay, rr, stepKind.work); got != want {
				t.Fatalf("%+v round %d: toWork %d, scan %d", p, rr, got, want)
			}
		}
	}
}

// TestSleepEarlyExitMatchesDense: EarlyExit chunks forward the
// programs' sleep hints through offsetProg, so their runs sleep; the
// result, rounds and Stats must equal the dense boxed run's.
func TestSleepEarlyExitMatchesDense(t *testing.T) {
	for _, ins := range []*bipartite.Instance{
		bipartite.Random(12, 30, 3, 6, 9, 17),
		bipartite.Random(40, 70, 3, 6, 1000, 5),
		bipartite.SymmetricKpp(4),
	} {
		ref := MustRun(ins, Options{EarlyExit: true, NoWire: true})
		for _, opt := range []Options{
			{EarlyExit: true},
			{EarlyExit: true, Engine: sim.Sharded, Workers: 2},
			{EarlyExit: true, Engine: sim.Sharded, Workers: 3, ScrambleSeed: 5},
		} {
			got := MustRun(ins, opt)
			if got.Rounds != ref.Rounds || got.Stats.Rounds != ref.Stats.Rounds ||
				got.Stats.Messages != ref.Stats.Messages || got.Stats.Bytes != ref.Stats.Bytes {
				t.Fatalf("%+v: rounds %d stats %+v, dense rounds %d stats %+v",
					opt, got.Rounds, got.Stats, ref.Rounds, ref.Stats)
			}
			if !slices.Equal(got.Cover, ref.Cover) || !slices.EqualFunc(got.Y, ref.Y, rational.Rat.Equal) {
				t.Fatalf("%+v: packing or cover diverges from the dense run", opt)
			}
		}
	}
}

// relayLog wraps a subset program and keeps every relay set it sends,
// with a copy of the set's items as they were when sent.
type relayLog struct {
	inner *SubsetProgram
	log   *[]relaySent
}

type relaySent struct {
	round int
	msg   sim.Message
	items any
}

func (o *relayLog) Init(env sim.Env)               {}
func (o *relayLog) Recv(r int, msgs []sim.Message) { o.inner.Recv(r, msgs) }
func (o *relayLog) Output() any                    { return o.inner.Output() }
func (o *relayLog) SleepUntil(r int) int           { return o.inner.SleepUntil(r) }
func (o *relayLog) Send(r int) sim.Message {
	m := o.inner.Send(r)
	switch m := m.(type) {
	case *mWeakSet:
		*o.log = append(*o.log, relaySent{r, m, slices.Clone(m.Items)})
	case *mClassSet:
		*o.log = append(*o.log, relaySent{r, m, slices.Clone(m.Items)})
	}
	return m
}

// TestSleepRelaySetsRetained: the Section 5 history simulation may keep
// a subset's relay sets (mWeakSet, mClassSet) for the whole run, and
// the sets are carved from the program's append-only arena.  Every set
// sent in round t must read the same after the run as when it was sent.
func TestSleepRelaySetsRetained(t *testing.T) {
	ins := bipartite.Random(40, 70, 3, 6, 1000, 5)
	pool := &ProgramPool{}
	envs := bipartiteEnvsForTest(ins)
	for run := 0; run < 2; run++ {
		subs, elems := pool.Get(ins, envs)
		var log []relaySent
		progs := make([]sim.BroadcastProgram, ins.N())
		for v := range progs {
			if ins.IsSubset(v) {
				progs[v] = &relayLog{inner: subs[v], log: &log}
			} else {
				progs[v] = elems[ins.ElementIndex(v)]
			}
		}
		if _, err := sim.RunBroadcast(ins, progs, Rounds(sim.BipartiteParams(ins)), sim.Options{}); err != nil {
			t.Fatal(err)
		}
		weak, class := 0, 0
		for _, s := range log {
			var same bool
			switch m := s.msg.(type) {
			case *mWeakSet:
				weak++
				same = slices.EqualFunc(m.Items, s.items.([]weakTriplet), func(a, b weakTriplet) bool {
					return a.CPrime.Cmp(b.CPrime) == 0 && a.C == b.C && a.P.Equal(b.P)
				})
			case *mClassSet:
				class++
				same = slices.Equal(m.Items, s.items.([]classState))
			}
			if !same {
				t.Fatalf("run %d: relay set sent in round %d changed after it was sent", run, s.round)
			}
		}
		if weak == 0 || class == 0 {
			t.Fatalf("run %d: %d weak and %d class relay sets sent; the test needs both", run, weak, class)
		}
		pool.Put(subs, elems)
	}
}

// silentProbe wraps a program and records, per node-round, whether the
// node sent or heard anything.  It is not a Sleeper, so a run of probes
// is dense.
type silentProbe struct {
	inner      program
	sent       bool
	roundsSent []bool
	silent     *int
}

func (o *silentProbe) Init(env sim.Env) {}
func (o *silentProbe) Output() any      { return o.inner.Output() }
func (o *silentProbe) Send(r int) sim.Message {
	m := o.inner.Send(r)
	o.sent = m != nil
	if o.sent {
		o.roundsSent[r-1] = true
	}
	return m
}
func (o *silentProbe) Recv(r int, msgs []sim.Message) {
	if !o.sent && !slices.ContainsFunc(msgs, func(m sim.Message) bool { return m != nil }) {
		*o.silent++
	}
	o.inner.Recv(r, msgs)
}

// recvCounter forwards a program and its sleep hints and counts the
// receives the kernel runs.
type recvCounter struct {
	inner program
	recvs *int
}

func (o *recvCounter) Init(env sim.Env)               {}
func (o *recvCounter) Send(r int) sim.Message         { return o.inner.Send(r) }
func (o *recvCounter) Recv(r int, msgs []sim.Message) { *o.recvs++; o.inner.Recv(r, msgs) }
func (o *recvCounter) Output() any                    { return o.inner.Output() }
func (o *recvCounter) SleepUntil(r int) int           { return o.inner.SleepUntil(r) }

// TestSleepProbeSCShape logs where a run of the benchmark's set-cover
// shape (f=3, k=6, W=1000) is silent: the share of rounds in which no
// node sends, the share of node-rounds in which a node neither sends
// nor hears, and the share of node-rounds the sleeping kernel skips.
func TestSleepProbeSCShape(t *testing.T) {
	for _, sz := range scShapes {
		ins := bipartite.Random(sz.s, sz.u, 3, 6, 1000, 5)
		params := sim.BipartiteParams(ins)
		rounds := Rounds(params)
		envs := sim.BipartiteEnvs(ins, params)
		fresh := func(v int) program {
			if ins.IsSubset(v) {
				return NewSubset(envs[v])
			}
			return NewElement(envs[v])
		}
		silent, recvs := 0, 0
		roundsSent := make([]bool, rounds)
		dense := make([]sim.BroadcastProgram, ins.N())
		sleeping := make([]sim.BroadcastProgram, ins.N())
		for v := range dense {
			dense[v] = &silentProbe{inner: fresh(v), roundsSent: roundsSent, silent: &silent}
			sleeping[v] = &recvCounter{inner: fresh(v), recvs: &recvs}
		}
		for _, progs := range [][]sim.BroadcastProgram{dense, sleeping} {
			if _, err := sim.RunBroadcast(ins, progs, rounds, sim.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		quiet := 0
		for _, sent := range roundsSent {
			if !sent {
				quiet++
			}
		}
		nodeRounds := float64(rounds * ins.N())
		t.Logf("%s: %d rounds, %.1f%% with no sender; %.1f%% of node-rounds silent; the kernel ran %.1f%% of the receives",
			sz.name, rounds, 100*float64(quiet)/float64(rounds), 100*float64(silent)/nodeRounds, 100*float64(recvs)/nodeRounds)
		// A silent node-round is not always skippable (an unsaturated
		// element with no relay to hear still takes its Cole–Vishkin
		// step), so the kernel's receives are only bounded by the dense
		// count.
		if recvs >= rounds*ins.N() {
			t.Errorf("%s: the kernel ran %d receives, a dense run's count", sz.name, recvs)
		}
	}
}
