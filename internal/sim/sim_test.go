package sim

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/graph"
)

var allEngines = []Engine{Sequential, Sharded, CSP}

// echoProg sends a fixed token through every port each round and records
// what arrived through each port.  It is test-side code, so giving it a
// global identity is fine — real algorithms never get one.
type echoProg struct {
	token    int
	deg      int
	lastSeen []int
}

func (p *echoProg) Init(env Env) {
	p.deg = env.Degree
	p.lastSeen = make([]int, env.Degree)
}

func (p *echoProg) Send(r int) []Message {
	out := make([]Message, p.deg)
	for i := range out {
		out[i] = p.token
	}
	return out
}

func (p *echoProg) Recv(r int, msgs []Message) {
	for i, m := range msgs {
		p.lastSeen[i] = m.(int)
	}
}

func (p *echoProg) Output() any { return append([]int(nil), p.lastSeen...) }

func TestPortWiringAllEngines(t *testing.T) {
	g := graph.RandomBoundedDegree(40, 80, 6, 1)
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			progs := make([]PortProgram, g.N())
			echoes := make([]*echoProg, g.N())
			for v := range progs {
				echoes[v] = &echoProg{token: v}
				progs[v] = echoes[v]
				progs[v].Init(GraphEnvs(g, GraphParams(g))[v])
			}
			stats, err := RunPort(g, progs, 3, Options{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Rounds != 3 {
				t.Fatalf("rounds = %d", stats.Rounds)
			}
			for v := 0; v < g.N(); v++ {
				for p, h := range g.Ports(v) {
					if echoes[v].lastSeen[p] != h.To {
						t.Fatalf("node %d port %d saw %d, want %d",
							v, p, echoes[v].lastSeen[p], h.To)
					}
				}
			}
		})
	}
}

// sumProg broadcasts its weight and accumulates everything it hears; the
// result is order-insensitive, as broadcast programs must be.
type sumProg struct {
	w   int64
	sum int64
}

func (p *sumProg) Init(env Env)       { p.w = env.Weight }
func (p *sumProg) Send(r int) Message { return p.w }
func (p *sumProg) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		p.sum += m.(int64)
	}
}
func (p *sumProg) Output() any { return p.sum }

func runSum(t *testing.T, g *graph.G, opt Options, rounds int) []int64 {
	t.Helper()
	envs := GraphEnvs(g, GraphParams(g))
	progs := make([]BroadcastProgram, g.N())
	sums := make([]*sumProg, g.N())
	for v := range progs {
		sums[v] = &sumProg{}
		progs[v] = sums[v]
		progs[v].Init(envs[v])
	}
	RunBroadcast(g, progs, rounds, opt)
	out := make([]int64, g.N())
	for v := range out {
		out[v] = sums[v].sum
	}
	return out
}

func TestBroadcastEnginesAndScramblesAgree(t *testing.T) {
	g := graph.RandomBoundedDegree(50, 120, 7, 2)
	graph.RandomWeights(g, 100, 3)
	ref := runSum(t, g, Options{Engine: Sequential}, 4)
	for _, eng := range allEngines {
		for _, seed := range []int64{0, 1, 99} {
			got := runSum(t, g, Options{Engine: eng, ScrambleSeed: seed}, 4)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("engine %v seed %d: node %d sum %d != %d",
						eng, seed, v, got[v], ref[v])
				}
			}
		}
	}
}

// roundTag asserts lockstep: every received message must carry the
// current round number.  This catches round-skew bugs, especially in the
// CSP engine.
type roundTag struct {
	deg  int
	fail atomic.Pointer[string]
}

func (p *roundTag) Init(env Env) { p.deg = env.Degree }
func (p *roundTag) Send(r int) []Message {
	out := make([]Message, p.deg)
	for i := range out {
		out[i] = r
	}
	return out
}
func (p *roundTag) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		if m.(int) != r {
			s := fmt.Sprintf("round %d received tag %d", r, m.(int))
			p.fail.Store(&s)
		}
	}
}
func (p *roundTag) Output() any { return nil }

func TestLockstepAllEngines(t *testing.T) {
	g := graph.RandomRegular(30, 4, 5)
	for _, eng := range allEngines {
		progs := make([]PortProgram, g.N())
		tags := make([]*roundTag, g.N())
		for v := range progs {
			tags[v] = &roundTag{}
			progs[v] = tags[v]
			progs[v].Init(Env{Degree: g.Deg(v)})
		}
		RunPort(g, progs, 10, Options{Engine: eng})
		for v, tg := range tags {
			if msg := tg.fail.Load(); msg != nil {
				t.Fatalf("engine %v node %d: %s", eng, v, *msg)
			}
		}
	}
}

// sized is a message with an explicit wire size.
type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

type sizedProg struct{ deg int }

func (p *sizedProg) Init(env Env) { p.deg = env.Degree }
func (p *sizedProg) Send(r int) Message {
	if r == 2 {
		return nil // idle round: not counted
	}
	return sized{n: 10}
}
func (p *sizedProg) Recv(r int, msgs []Message) {}
func (p *sizedProg) Output() any                { return nil }

func TestStatsCounting(t *testing.T) {
	g := graph.Cycle(6) // 6 nodes, 12 directed deliveries per round
	for _, eng := range allEngines {
		progs := make([]BroadcastProgram, g.N())
		for v := range progs {
			progs[v] = &sizedProg{}
			progs[v].Init(Env{Degree: g.Deg(v)})
		}
		stats, err := RunBroadcast(g, progs, 3, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		// Rounds 1 and 3 deliver 12 messages of 10 bytes each; round 2
		// delivers nils.
		if stats.Messages != 24 {
			t.Fatalf("engine %v: messages = %d, want 24", eng, stats.Messages)
		}
		if stats.Bytes != 240 {
			t.Fatalf("engine %v: bytes = %d, want 240", eng, stats.Bytes)
		}
	}
}

func TestIsolatedNodes(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // nodes 2, 3 isolated
	g := b.Build()
	for _, eng := range allEngines {
		progs := make([]PortProgram, g.N())
		for v := range progs {
			p := &echoProg{token: v}
			progs[v] = p
			p.Init(Env{Degree: g.Deg(v)})
		}
		RunPort(g, progs, 2, Options{Engine: eng}) // must not hang or panic
	}
}

func TestZeroRounds(t *testing.T) {
	g := graph.Cycle(3)
	progs := make([]PortProgram, g.N())
	for v := range progs {
		p := &echoProg{token: v}
		progs[v] = p
		p.Init(Env{Degree: g.Deg(v)})
	}
	stats, err := RunPort(g, progs, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Fatal("zero-round run should do nothing")
	}
}

// mkEchoProgs builds one initialized echoProg per node.
func mkEchoProgs(g *graph.G) []PortProgram {
	progs := make([]PortProgram, g.N())
	for v := range progs {
		p := &echoProg{token: v}
		progs[v] = p
		p.Init(Env{Degree: g.Deg(v)})
	}
	return progs
}

func TestObserverHook(t *testing.T) {
	g := graph.Cycle(4) // 8 deliveries per round
	for _, eng := range []Engine{Sequential, Sharded} {
		var seen []RoundInfo
		stats, err := RunPort(g, mkEchoProgs(g), 3, Options{Engine: eng, Workers: 2,
			Observer: func(ri RoundInfo) { seen = append(seen, ri) }})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 3 {
			t.Fatalf("engine %v: observer fired %d times, want 3", eng, len(seen))
		}
		for i, ri := range seen {
			if ri.Round != i+1 || ri.Total != 3 {
				t.Fatalf("engine %v: observation %d = %+v", eng, i, ri)
			}
			if ri.Messages != int64(8*(i+1)) {
				t.Fatalf("engine %v: cumulative messages %d after round %d, want %d",
					eng, ri.Messages, i+1, 8*(i+1))
			}
		}
		if seen[2].Messages != stats.Messages {
			t.Fatalf("engine %v: final observation %d != stats %d",
				eng, seen[2].Messages, stats.Messages)
		}
	}
}

func TestBarrierOnlyOptionsErrorOnCSP(t *testing.T) {
	g := graph.Cycle(3)
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := map[string]Options{
		"observer": {Engine: CSP, Observer: func(RoundInfo) {}},
		"trace":    {Engine: CSP, Trace: true},
		"context":  {Engine: CSP, Context: cancellable},
		"budget":   {Engine: CSP, RoundBudget: 1},
	}
	for name, opt := range opts {
		if _, err := RunPort(g, mkEchoProgs(g), 1, opt); err == nil {
			t.Errorf("%s: CSP engine accepted a barrier-only option", name)
		}
	}
	// A context that can never be cancelled needs no barrier to honour.
	if _, err := RunPort(g, mkEchoProgs(g), 1, Options{Engine: CSP, Context: context.Background()}); err != nil {
		t.Errorf("CSP engine rejected a never-cancellable context: %v", err)
	}
}

func TestContextCancelStopsRun(t *testing.T) {
	g := graph.Cycle(6)
	for _, eng := range []Engine{Sequential, Sharded} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired int
		stats, err := RunPort(g, mkEchoProgs(g), 10, Options{Engine: eng, Context: ctx,
			Observer: func(ri RoundInfo) {
				fired++
				if ri.Round == 2 {
					cancel()
				}
			}})
		if err != context.Canceled {
			t.Fatalf("engine %v: err = %v, want context.Canceled", eng, err)
		}
		if stats.Rounds != 2 || fired != 2 {
			t.Fatalf("engine %v: stopped after %d rounds (%d observations), want 2",
				eng, stats.Rounds, fired)
		}
		cancel()
	}
}

func TestRoundBudget(t *testing.T) {
	g := graph.Cycle(5)
	for _, eng := range []Engine{Sequential, Sharded} {
		stats, err := RunPort(g, mkEchoProgs(g), 10, Options{Engine: eng, RoundBudget: 4})
		if err != ErrRoundBudget {
			t.Fatalf("engine %v: err = %v, want ErrRoundBudget", eng, err)
		}
		if stats.Rounds != 4 {
			t.Fatalf("engine %v: executed %d rounds, want 4", eng, stats.Rounds)
		}
		// A budget at least as large as the schedule changes nothing.
		stats, err = RunPort(g, mkEchoProgs(g), 3, Options{Engine: eng, RoundBudget: 3})
		if err != nil || stats.Rounds != 3 {
			t.Fatalf("engine %v: sufficient budget gave rounds=%d err=%v", eng, stats.Rounds, err)
		}
	}
}

func TestTraceRecordsPerRound(t *testing.T) {
	g := graph.Cycle(8)
	for _, eng := range []Engine{Sequential, Sharded} {
		progs := make([]BroadcastProgram, g.N())
		for v := range progs {
			progs[v] = &sumProg{}
			progs[v].Init(Env{})
		}
		stats, err := RunBroadcast(g, progs, 5, Options{Engine: eng, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.RoundNanos) != 5 || len(stats.RoundAllocs) != 5 {
			t.Fatalf("engine %v: trace lengths %d/%d, want 5/5",
				eng, len(stats.RoundNanos), len(stats.RoundAllocs))
		}
		for r, ns := range stats.RoundNanos {
			if ns < 0 {
				t.Fatalf("engine %v round %d: negative wall time", eng, r+1)
			}
		}
	}
}

func TestWrongSendLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g := graph.Cycle(3)
	progs := make([]PortProgram, g.N())
	for v := range progs {
		p := &echoProg{token: v}
		progs[v] = p
		p.Init(Env{Degree: 1}) // lie about the degree
	}
	RunPort(g, progs, 1, Options{})
}

func TestProgramCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g := graph.Cycle(3)
	RunPort(g, make([]PortProgram, 2), 1, Options{})
}

func TestBipartiteEnvs(t *testing.T) {
	ins := bipartite.NewBuilder(2, 3).
		AddEdge(0, 0).AddEdge(0, 1).AddEdge(1, 1).AddEdge(1, 2).
		Build()
	ins.SetWeight(1, 9)
	p := BipartiteParams(ins)
	if p.F != 2 || p.K != 2 || p.W != 9 {
		t.Fatalf("params %+v", p)
	}
	envs := BipartiteEnvs(ins, p)
	if envs[0].Kind != KindSubset || envs[1].Weight != 9 {
		t.Fatal("subset env wrong")
	}
	if envs[2].Kind != KindElement || envs[2].Weight != 0 {
		t.Fatal("element env wrong")
	}
	if envs[3].Degree != 2 {
		t.Fatalf("element 1 degree %d", envs[3].Degree)
	}
}

func TestSchedule(t *testing.T) {
	s := NewSchedule(2, 0, 3)
	if s.Total() != 5 {
		t.Fatalf("total %d", s.Total())
	}
	cases := []struct{ r, seg, local int }{
		{1, 0, 1}, {2, 0, 2}, {3, 2, 1}, {4, 2, 2}, {5, 2, 3},
	}
	for _, c := range cases {
		seg, local := s.Locate(c.r)
		if seg != c.seg || local != c.local {
			t.Fatalf("Locate(%d) = (%d,%d), want (%d,%d)", c.r, seg, local, c.seg, c.local)
		}
	}
}

func TestScheduleOutOfRangePanics(t *testing.T) {
	s := NewSchedule(2)
	for _, r := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Locate(%d): no panic", r)
				}
			}()
			s.Locate(r)
		}()
	}
}

func TestRunOnBipartiteTopology(t *testing.T) {
	ins := bipartite.Random(8, 20, 3, 6, 10, 7)
	envs := BipartiteEnvs(ins, BipartiteParams(ins))
	for _, eng := range allEngines {
		progs := make([]BroadcastProgram, ins.N())
		sums := make([]*sumProg, ins.N())
		for v := range progs {
			sums[v] = &sumProg{}
			progs[v] = sums[v]
			progs[v].Init(envs[v])
		}
		RunBroadcast(ins, progs, 2, Options{Engine: eng})
		// Elements have weight 0, so after 2 rounds a subset's sum is 0
		// and an element's sum is 2x the weight sum of its subsets.
		for v := 0; v < ins.S(); v++ {
			if sums[v].sum != 0 {
				t.Fatalf("engine %v: subset %d heard nonzero weights", eng, v)
			}
		}
		for v := ins.S(); v < ins.N(); v++ {
			var want int64
			for _, h := range ins.Ports(v) {
				want += 2 * ins.Weight(h.To)
			}
			if sums[v].sum != want {
				t.Fatalf("engine %v: element sum %d, want %d", eng, sums[v].sum, want)
			}
		}
	}
}
