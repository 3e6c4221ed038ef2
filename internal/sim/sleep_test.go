package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"anoncover/internal/bipartite"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// denseSleepCheck runs port programs over top for the given number of
// rounds the way a dense engine does — every node sends and receives in
// every round — and holds each Sleeper to its promise: while the
// node's last SleepUntil covers round t, Send(t) must return only nil,
// and a Recv(t) whose inbox is all nil must leave the program
// reflect.DeepEqual to its state before.  A non-nil message wakes the
// node as in the kernel: it receives normally and is asked again.  It
// returns how many node-rounds the promise covered.
func denseSleepCheck(t *testing.T, top sim.Topology, progs []sim.PortProgram, rounds int) (covered int) {
	t.Helper()
	n := top.N()
	until := make([]int, n) // a node sleeps through round r while r < until
	// A sleeping node's shadow is a deep copy taken when the sleep began
	// and stepped through Send only, which is where a program may
	// legitimately move (its schedule cursor, say); after every silent
	// Recv the node must still equal it.
	shadow := make([]sim.PortProgram, n)
	sent := make([][]sim.Message, n)
	var in []sim.Message
	for r := 1; r <= rounds; r++ {
		for v, p := range progs {
			// A program may reuse the slice Send returns, so keep a copy.
			sent[v] = append(sent[v][:0], p.Send(r)...)
			if r < until[v] {
				for q, m := range sent[v] {
					if m != nil {
						t.Fatalf("node %d round %d: Send put %T on port %d inside a sleep that ends at %d", v, r, m, q, until[v])
					}
				}
				shadow[v].Send(r)
			}
		}
		for v, p := range progs {
			in = in[:0]
			quiet := true
			for _, h := range top.Ports(v) {
				m := sent[h.To][h.RevPort]
				in = append(in, m)
				quiet = quiet && m == nil
			}
			p.Recv(r, in)
			if r < until[v] && quiet {
				covered++
				if !reflect.DeepEqual(p, shadow[v]) {
					t.Fatalf("node %d round %d: Recv with a silent inbox changed a sleeping %T", v, r, p)
				}
				continue
			}
			s, ok := p.(sim.Sleeper)
			if !ok {
				continue
			}
			if until[v] = s.SleepUntil(r); until[v] <= r {
				t.Fatalf("node %d: SleepUntil(%d) = %d", v, r, until[v])
			}
			if until[v] > r+1 {
				shadow[v] = deepClone(reflect.ValueOf(p)).Interface().(sim.PortProgram)
			}
		}
	}
	return covered
}

// asPort runs a broadcast program as a port program that puts its one
// value on every port, so denseSleepCheck serves both models.
type asPort struct {
	p   sim.BroadcastProgram
	out []sim.Message
}

func (a *asPort) Init(env sim.Env) {}
func (a *asPort) Send(r int) []sim.Message {
	m := a.p.Send(r)
	for q := range a.out {
		a.out[q] = m
	}
	return a.out
}
func (a *asPort) Recv(r int, msgs []sim.Message) { a.p.Recv(r, msgs) }
func (a *asPort) Output() any                    { return a.p.Output() }

// SleepUntil forwards the inner promise; a program that makes none
// runs the next round.
func (a *asPort) SleepUntil(r int) int {
	if s, ok := a.p.(sim.Sleeper); ok {
		return s.SleepUntil(r)
	}
	return r + 1
}

// denseSleepCheckBcast is denseSleepCheck for broadcast programs.
func denseSleepCheckBcast(t *testing.T, top sim.Topology, progs []sim.BroadcastProgram, rounds int) int {
	t.Helper()
	ports := make([]sim.PortProgram, len(progs))
	for v, p := range progs {
		ports[v] = &asPort{p: p, out: make([]sim.Message, top.Deg(v))}
	}
	return denseSleepCheck(t, top, ports, rounds)
}

// densePort holds a port program as a named field, so the kernel steps
// it in every round even when the program is a Sleeper.  It runs boxed.
type densePort struct{ p sim.PortProgram }

func (d densePort) Init(env sim.Env)               {}
func (d densePort) Send(r int) []sim.Message       { return d.p.Send(r) }
func (d densePort) Recv(r int, msgs []sim.Message) { d.p.Recv(r, msgs) }
func (d densePort) Output() any                    { return d.p.Output() }

// denseBcast is densePort for broadcast programs.
type denseBcast struct{ p sim.BroadcastProgram }

func (d denseBcast) Init(env sim.Env)               {}
func (d denseBcast) Send(r int) sim.Message         { return d.p.Send(r) }
func (d denseBcast) Recv(r int, msgs []sim.Message) { d.p.Recv(r, msgs) }
func (d denseBcast) Output() any                    { return d.p.Output() }

// deepClone returns a deep copy of v, unexported fields included, so a
// program's state can be compared with itself a round later.
func deepClone(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	cloneInto(c, v)
	return c
}

// cloneInto deep-copies src into the zero, settable dst.
func cloneInto(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Pointer:
		if !src.IsNil() {
			p := reflect.New(src.Type().Elem())
			cloneInto(p.Elem(), src.Elem())
			dst.Set(p)
		}
	case reflect.Interface:
		if !src.IsNil() {
			dst.Set(deepClone(src.Elem()))
		}
	case reflect.Struct:
		if !src.CanAddr() {
			src = deepAddressable(src)
		}
		for i := 0; i < src.NumField(); i++ {
			cloneInto(opened(dst.Field(i)), opened(src.Field(i)))
		}
	case reflect.Slice:
		if !src.IsNil() {
			s := reflect.MakeSlice(src.Type(), src.Len(), src.Cap())
			for i := 0; i < src.Len(); i++ {
				cloneInto(s.Index(i), src.Index(i))
			}
			dst.Set(s)
		}
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			cloneInto(dst.Index(i), src.Index(i))
		}
	case reflect.Map:
		if !src.IsNil() {
			m := reflect.MakeMapWithSize(src.Type(), src.Len())
			for it := src.MapRange(); it.Next(); {
				m.SetMapIndex(deepClone(it.Key()), deepClone(it.Value()))
			}
			dst.Set(m)
		}
	default:
		dst.Set(src)
	}
}

// deepAddressable copies a non-addressable struct into addressable
// storage, so its unexported fields can be opened.
func deepAddressable(v reflect.Value) reflect.Value {
	a := reflect.New(v.Type()).Elem()
	a.Set(v)
	return a
}

// opened lifts the read-only flag reflect puts on unexported fields.
func opened(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// fracpackProgs builds one fresh Section 4 program per node of ins.
func fracpackProgs(ins *bipartite.Instance) ([]sim.BroadcastProgram, int) {
	params := sim.BipartiteParams(ins)
	envs := sim.BipartiteEnvs(ins, params)
	progs := make([]sim.BroadcastProgram, ins.N())
	for v := range progs {
		if ins.IsSubset(v) {
			progs[v] = fracpack.NewSubset(envs[v])
		} else {
			progs[v] = fracpack.NewElement(envs[v])
		}
	}
	return progs, fracpack.Rounds(params)
}

// TestSleepContractFracpack holds both Section 4 programs to the Sleeper
// promise on every set-cover instance of the equivalence matrices, and
// checks that the dense run ends where the sleeping kernel does.
func TestSleepContractFracpack(t *testing.T) {
	for name, ins := range scFamilies() {
		t.Run(name, func(t *testing.T) {
			progs, rounds := fracpackProgs(ins)
			covered := denseSleepCheckBcast(t, ins, progs, rounds)
			if covered == 0 {
				t.Fatal("no node-round was covered by a sleep promise")
			}
			t.Logf("%d of %d node-rounds covered by a sleep promise", covered, rounds*ins.N())
			for _, ev := range engineVariants()[:3] {
				sleeping, _ := fracpackProgs(ins)
				if _, err := sim.RunBroadcast(ins, sleeping, rounds, sim.Options{
					Engine: ev.engine, Workers: ev.workers, NoWire: ev.noWire,
				}); err != nil {
					t.Fatal(err)
				}
				for v := range progs {
					if got, want := fmt.Sprint(sleeping[v].Output()), fmt.Sprint(progs[v].Output()); got != want {
						t.Fatalf("%s: node %d output %s, dense run %s", ev.name, v, got, want)
					}
				}
			}
		})
	}
}

// edgepackProgs builds one fresh Section 3 program per node of g, with
// the graph's own parameters or, when np is non-nil, each node's own
// (a batched union), and returns the run's round count.
func edgepackProgs(g *graph.G, np []sim.Params) ([]sim.PortProgram, int) {
	envs := sim.GraphEnvs(g, sim.GraphParams(g))
	rounds := edgepack.Rounds(sim.GraphParams(g))
	if np != nil {
		rounds = 0
		for v := range envs {
			envs[v].Params = np[v]
			rounds = max(rounds, edgepack.Rounds(np[v]))
		}
	}
	progs := make([]sim.PortProgram, g.N())
	for v := range progs {
		progs[v] = edgepack.New(envs[v])
	}
	return progs, rounds
}

// batchedUnion is a disjoint union of three vertex-cover instances of
// different Δ and W, with each node's own component parameters, as a
// batched NodeParams run has them: the smaller components idle through
// the tail of the longest schedule.
func batchedUnion() (*graph.G, []sim.Params) {
	parts := []*graph.G{graph.Grid(4, 5), graph.PowerLawBounded(40, 2, 7, 3), graph.Path(6)}
	for i, g := range parts {
		graph.RandomWeights(g, int64(30*(i+1)), int64(i+4))
	}
	u := graph.DisjointUnion(parts)
	np := make([]sim.Params, u.G.N())
	for i, g := range parts {
		lo, hi := u.Nodes(i)
		for v := lo; v < hi; v++ {
			np[v] = sim.GraphParams(g)
		}
	}
	return u.G, np
}

// TestSleepContractEdgepack holds the Section 3 program to the Sleeper
// promise on every vertex-cover instance of the equivalence matrices
// and on a batched union, and checks that the dense run ends where the
// sleeping kernel does.
func TestSleepContractEdgepack(t *testing.T) {
	type instance struct {
		g  *graph.G
		np []sim.Params
	}
	cases := map[string]instance{}
	for name, g := range vcFamilies() {
		cases[name] = instance{g: g}
	}
	g, np := batchedUnion()
	cases["batched"] = instance{g, np}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			progs, rounds := edgepackProgs(c.g, c.np)
			covered := denseSleepCheck(t, c.g, progs, rounds)
			if covered == 0 {
				t.Fatal("no node-round was covered by a sleep promise")
			}
			t.Logf("%d of %d node-rounds covered by a sleep promise", covered, rounds*c.g.N())
			for _, ev := range engineVariants()[:3] {
				sleeping, _ := edgepackProgs(c.g, c.np)
				if _, err := sim.RunPort(c.g, sleeping, rounds, sim.Options{
					Engine: ev.engine, Workers: ev.workers, NoWire: ev.noWire || c.np != nil,
				}); err != nil {
					t.Fatal(err)
				}
				for v := range progs {
					if got, want := fmt.Sprint(sleeping[v].Output()), fmt.Sprint(progs[v].Output()); got != want {
						t.Fatalf("%s: node %d output %s, dense run %s", ev.name, v, got, want)
					}
				}
			}
		})
	}
}

// jitter is a Sleeper whose speaking rounds depend on its state: it
// speaks in round t when a hash of (state, t) says so, folds what it
// hears into its state, and so changes its schedule whenever a
// neighbour's message wakes it.  Sleep lengths vary from one round to
// many, which exercises every clearing case of the kernel's
// double-buffered value slots; a stale value left in a slot would be
// heard by a neighbour and change the outputs.
type jitter struct {
	state uint64
	recvs *int // counts receives when non-nil
}

func (p *jitter) speaks(t int) bool { return mix(p.state^uint64(t))%5 == 0 }

func (p *jitter) Init(env sim.Env) {}

func (p *jitter) Send(r int) sim.Message {
	if !p.speaks(r) {
		return nil
	}
	return p.state
}

func (p *jitter) Recv(r int, msgs []sim.Message) {
	if p.recvs != nil {
		*p.recvs++
	}
	var sum uint64
	heard := false
	for _, m := range msgs {
		if m != nil {
			sum += m.(uint64)
			heard = true
		}
	}
	if heard {
		p.state = mix(p.state + sum + uint64(r))
	}
}

func (p *jitter) SleepUntil(r int) int {
	t := r + 1
	for !p.speaks(t) {
		t++
	}
	return t
}

func (p *jitter) Output() any { return p.state }

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// pjitter is jitter's port-model sibling.  In a speaking round it
// sends its state on the ports a hash of (state, round, port) picks,
// and it folds what it hears, weighted by port, into its state.  Its
// wire form uses two-word lanes [round stamp, value] and travels boxed
// every seventh round, so a wire run also switches delivery paths
// under sleeping nodes: a stale value left in any slot of either path
// would be heard and change the outputs.
type pjitter struct {
	state uint64
	out   []sim.Message
	recvs *int // counts receives when non-nil
}

// pjMsg is a pjitter payload; it counts eight bytes, as its lane does.
type pjMsg uint64

func (pjMsg) WireSize() int { return 8 }

func (p *pjitter) speaks(t int) bool { return mix(p.state^uint64(t))%5 == 0 }

func (p *pjitter) live(t, q int) bool {
	return p.speaks(t) && mix(p.state+uint64(31*t+q))%3 != 0
}

func (p *pjitter) Init(env sim.Env) {}

func (p *pjitter) Send(r int) []sim.Message {
	for q := range p.out {
		p.out[q] = nil
		if p.live(r, q) {
			p.out[q] = pjMsg(p.state + uint64(q))
		}
	}
	return p.out
}

func (p *pjitter) Recv(r int, msgs []sim.Message) {
	p.hear(r, func(q int) (uint64, bool) {
		m, ok := msgs[q].(pjMsg)
		return uint64(m), ok
	})
}

func (p *pjitter) WireWords(r int) int {
	if r%7 == 0 {
		return 0
	}
	return 2
}

func (p *pjitter) SendWire(r int, out []uint64) (msgs, bytes int64, ok bool) {
	for q := range p.out {
		out[2*q] = 0
		if p.live(r, q) {
			out[2*q], out[2*q+1] = uint64(r), p.state+uint64(q)
			msgs++
		}
	}
	return msgs, 8 * msgs, true
}

func (p *pjitter) RecvWire(r int, in []uint64) {
	p.hear(r, func(q int) (uint64, bool) { return in[2*q+1], in[2*q] == uint64(r) })
}

func (p *pjitter) hear(r int, val func(q int) (uint64, bool)) {
	if p.recvs != nil {
		*p.recvs++
	}
	var sum uint64
	heard := false
	for q := range p.out {
		if v, ok := val(q); ok {
			sum += mix(v + uint64(q))
			heard = true
		}
	}
	if heard {
		p.state = mix(p.state + sum + uint64(r))
	}
}

func (p *pjitter) SleepUntil(r int) int {
	t := r + 1
	for !p.speaks(t) {
		t++
	}
	return t
}

func (p *pjitter) Output() any { return p.state }

// TestSleepKernelMatchesDense runs jitter programs on the sleeping
// kernel at several shard counts and scramble seeds and holds outputs
// and Stats to the dense paths (the same programs stepped through
// denseBcast, and the CSP engine), which never consult SleepUntil.
// The sleeping runs must also have skipped node-rounds, or the test
// would not be testing sleep.
func TestSleepKernelMatchesDense(t *testing.T) {
	g := graph.RandomRegular(96, 4, 7)
	const rounds = 200
	run := func(opt sim.Options, dense bool) ([]uint64, sim.Stats, int) {
		recvs := 0
		counter := &recvs
		switch opt.Engine {
		case sim.CSP:
			counter = nil // one goroutine per node: nothing to count with
		case sim.Sharded:
			// Workers stepping shards concurrently would race on the
			// shared counter; count on one worker.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		}
		progs := make([]sim.BroadcastProgram, g.N())
		for v := range progs {
			progs[v] = &jitter{state: mix(uint64(v) + 1), recvs: counter}
			if dense {
				progs[v] = denseBcast{progs[v]}
			}
		}
		st, err := sim.RunBroadcast(g, progs, rounds, opt)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, g.N())
		for v, p := range progs {
			out[v] = p.Output().(uint64)
		}
		return out, st, recvs
	}
	for _, seed := range []int64{0, 42} {
		ref, refStats, denseRecvs := run(sim.Options{Engine: sim.Sequential, ScrambleSeed: seed}, true)
		if denseRecvs != rounds*g.N() {
			t.Fatalf("dense run made %d receives, want %d", denseRecvs, rounds*g.N())
		}
		csp, cspStats, _ := run(sim.Options{Engine: sim.CSP, ScrambleSeed: seed}, false)
		mustEqualStats(t, refStats, cspStats)
		for v := range ref {
			if csp[v] != ref[v] {
				t.Fatalf("seed %d: CSP and dense disagree at node %d", seed, v)
			}
		}
		for _, k := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("seed%d/shards-%d", seed, k), func(t *testing.T) {
				opt := sim.Options{Engine: sim.Sharded, Workers: k, ScrambleSeed: seed}
				if k == 1 {
					opt.Engine = sim.Sequential
				}
				got, st, recvs := run(opt, false)
				mustEqualStats(t, refStats, st)
				for v := range ref {
					if got[v] != ref[v] {
						t.Fatalf("node %d state %x, dense %x", v, got[v], ref[v])
					}
				}
				if recvs >= denseRecvs {
					t.Fatalf("sleeping run made %d receives, dense %d: nothing slept", recvs, denseRecvs)
				}
				t.Logf("%d of %d receives", recvs, denseRecvs)
			})
		}
	}
	progs := make([]sim.BroadcastProgram, g.N())
	for v := range progs {
		progs[v] = &jitter{state: mix(uint64(v) + 1)}
	}
	if denseSleepCheckBcast(t, g, progs, rounds) == 0 {
		t.Fatal("jitter never slept")
	}

	// Port rows: pjitter on its wire lanes and forced boxed, against the
	// same programs stepped densely (boxed, through densePort) and the
	// CSP engine.
	runPort := func(opt sim.Options, dense bool) ([]uint64, sim.Stats, int) {
		recvs := 0
		counter := &recvs
		switch opt.Engine {
		case sim.CSP:
			counter = nil
		case sim.Sharded:
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		}
		jit := make([]*pjitter, g.N())
		progs := make([]sim.PortProgram, g.N())
		for v := range progs {
			jit[v] = &pjitter{state: mix(uint64(v) + 1), out: make([]sim.Message, g.Deg(v)), recvs: counter}
			progs[v] = jit[v]
			if dense {
				progs[v] = densePort{jit[v]}
			}
		}
		st, err := sim.RunPort(g, progs, rounds, opt)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, g.N())
		for v, p := range jit {
			out[v] = p.state
		}
		return out, st, recvs
	}
	ref, refStats, denseRecvs := runPort(sim.Options{Engine: sim.Sequential}, true)
	if denseRecvs != rounds*g.N() {
		t.Fatalf("dense port run made %d receives, want %d", denseRecvs, rounds*g.N())
	}
	csp, cspStats, _ := runPort(sim.Options{Engine: sim.CSP}, false)
	mustEqualStats(t, refStats, cspStats)
	for v := range ref {
		if csp[v] != ref[v] {
			t.Fatalf("port: CSP and dense disagree at node %d", v)
		}
	}
	for _, path := range []string{"wire", "boxed"} {
		for _, k := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("port-%s/shards-%d", path, k), func(t *testing.T) {
				opt := sim.Options{Engine: sim.Sharded, Workers: k, NoWire: path == "boxed"}
				if k == 1 {
					opt.Engine = sim.Sequential
				}
				got, st, recvs := runPort(opt, false)
				mustEqualStats(t, refStats, st)
				for v := range ref {
					if got[v] != ref[v] {
						t.Fatalf("node %d state %x, dense %x", v, got[v], ref[v])
					}
				}
				if recvs >= denseRecvs {
					t.Fatalf("sleeping run made %d receives, dense %d: nothing slept", recvs, denseRecvs)
				}
				t.Logf("%d of %d receives", recvs, denseRecvs)
			})
		}
	}
	pprogs := make([]sim.PortProgram, g.N())
	for v := range pprogs {
		pprogs[v] = &pjitter{state: mix(uint64(v) + 1), out: make([]sim.Message, g.Deg(v))}
	}
	if denseSleepCheck(t, g, pprogs, rounds) == 0 {
		t.Fatal("pjitter never slept")
	}
}

// TestSleepRunHooks: rounds the sleeping kernel skips, whole or in part,
// still pass through the round barrier — the observer sees the same
// cumulative stream as on a dense path (the same programs wrapped as
// non-Sleepers), tracing records every round, and a round budget
// stops the run at the same boundary.
func TestSleepRunHooks(t *testing.T) {
	ins := scFamilies()["random-f3k6"]
	observe := func(opt sim.Options, dense bool) ([]sim.RoundInfo, sim.Stats) {
		progs, rounds := fracpackProgs(ins)
		if dense {
			for v, p := range progs {
				progs[v] = denseBcast{p}
			}
		}
		var seen []sim.RoundInfo
		opt.Observer = func(ri sim.RoundInfo) { seen = append(seen, ri) }
		opt.Trace = true
		st, err := sim.RunBroadcast(ins, progs, rounds, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.RoundNanos) != rounds {
			t.Fatalf("%d traced rounds of %d", len(st.RoundNanos), rounds)
		}
		return seen, st
	}
	ref, refStats := observe(sim.Options{}, true)
	for _, opt := range []sim.Options{{}, {Engine: sim.Sharded, Workers: 3}} {
		got, st := observe(opt, false)
		mustEqualStats(t, refStats, st)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%v: observer stream diverges from the dense run's", opt.Engine)
		}
	}
	progs, rounds := fracpackProgs(ins)
	st, err := sim.RunBroadcast(ins, progs, rounds, sim.Options{RoundBudget: rounds - 1})
	if err != sim.ErrRoundBudget || st.Rounds != rounds-1 {
		t.Fatalf("budget %d of %d rounds: ran %d, err %v", rounds-1, rounds, st.Rounds, err)
	}

	// Port rows: edge packing on a batched union, whose shorter
	// components sleep through the tail rounds (which the kernel then
	// skips whole), against the same programs stepped densely.
	g, np := batchedUnion()
	observePort := func(opt sim.Options, dense bool) ([]sim.RoundInfo, sim.Stats) {
		progs, rounds := edgepackProgs(g, np)
		if dense {
			for v, p := range progs {
				progs[v] = densePort{p}
			}
		}
		var seen []sim.RoundInfo
		opt.Observer = func(ri sim.RoundInfo) { seen = append(seen, ri) }
		opt.Trace, opt.NoWire = true, true
		st, err := sim.RunPort(g, progs, rounds, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.RoundNanos) != rounds {
			t.Fatalf("%d traced rounds of %d", len(st.RoundNanos), rounds)
		}
		return seen, st
	}
	pref, prefStats := observePort(sim.Options{}, true)
	for _, opt := range []sim.Options{{}, {Engine: sim.Sharded, Workers: 3}} {
		got, st := observePort(opt, false)
		mustEqualStats(t, prefStats, st)
		if !reflect.DeepEqual(got, pref) {
			t.Fatalf("port %v: observer stream diverges from the dense run's", opt.Engine)
		}
	}
	pprogs, prounds := edgepackProgs(g, np)
	st, err = sim.RunPort(g, pprogs, prounds, sim.Options{RoundBudget: prounds - 1, NoWire: true})
	if err != sim.ErrRoundBudget || st.Rounds != prounds-1 {
		t.Fatalf("port budget %d of %d rounds: ran %d, err %v", prounds-1, prounds, st.Rounds, err)
	}
}
