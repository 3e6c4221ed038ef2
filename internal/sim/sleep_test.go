package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"anoncover/internal/bipartite"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// denseSleepCheck runs broadcast programs over top for the given number
// of rounds the way a dense engine does — every node sends and
// receives in every round — and holds each Sleeper to its promise:
// while the node's last SleepUntil covers round t, Send(t) must return
// nil, and a Recv(t) whose inbox is all nil must leave the program
// reflect.DeepEqual to its state before.  A non-nil message wakes the
// node as in the kernel: it receives normally and is asked again.  It
// returns how many node-rounds the promise covered.
func denseSleepCheck(t *testing.T, top sim.Topology, progs []sim.BroadcastProgram, rounds int) (covered int) {
	t.Helper()
	n := top.N()
	until := make([]int, n) // a node sleeps through round r while r < until
	// A sleeping node's shadow is a deep copy taken when the sleep began
	// and stepped through Send only, which is where a program may
	// legitimately move (its schedule cursor, say); after every silent
	// Recv the node must still equal it.
	shadow := make([]sim.BroadcastProgram, n)
	sent := make([]sim.Message, n)
	var in []sim.Message
	for r := 1; r <= rounds; r++ {
		for v, p := range progs {
			sent[v] = p.Send(r)
			if r < until[v] {
				if sent[v] != nil {
					t.Fatalf("node %d round %d: Send returned %T inside a sleep that ends at %d", v, r, sent[v], until[v])
				}
				shadow[v].Send(r)
			}
		}
		for v, p := range progs {
			in = in[:0]
			quiet := true
			for _, h := range top.Ports(v) {
				in = append(in, sent[h.To])
				quiet = quiet && sent[h.To] == nil
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
				shadow[v] = deepClone(reflect.ValueOf(p)).Interface().(sim.BroadcastProgram)
			}
		}
	}
	return covered
}

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
			covered := denseSleepCheck(t, ins, progs, rounds)
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

// TestSleepKernelMatchesDense runs jitter programs on the sleeping
// kernel at several shard counts and scramble seeds and holds outputs
// and Stats to the dense paths (the boxed kernel and the CSP engine),
// which never consult SleepUntil.  The sleeping runs must also have
// skipped node-rounds, or the test would not be testing sleep.
func TestSleepKernelMatchesDense(t *testing.T) {
	g := graph.RandomRegular(96, 4, 7)
	const rounds = 200
	run := func(opt sim.Options) ([]uint64, sim.Stats, int) {
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
		ref, refStats, denseRecvs := run(sim.Options{Engine: sim.Sequential, NoWire: true, ScrambleSeed: seed})
		if denseRecvs != rounds*g.N() {
			t.Fatalf("boxed run made %d receives, want %d", denseRecvs, rounds*g.N())
		}
		csp, cspStats, _ := run(sim.Options{Engine: sim.CSP, ScrambleSeed: seed})
		mustEqualStats(t, refStats, cspStats)
		for v := range ref {
			if csp[v] != ref[v] {
				t.Fatalf("seed %d: CSP and boxed disagree at node %d", seed, v)
			}
		}
		for _, k := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("seed%d/shards-%d", seed, k), func(t *testing.T) {
				opt := sim.Options{Engine: sim.Sharded, Workers: k, ScrambleSeed: seed}
				if k == 1 {
					opt.Engine = sim.Sequential
				}
				got, st, recvs := run(opt)
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
	if denseSleepCheck(t, g, progs, rounds) == 0 {
		t.Fatal("jitter never slept")
	}
}

// TestSleepRunHooks: rounds the sleeping kernel skips, whole or in part,
// still pass through the round barrier — the observer sees the same
// cumulative stream as on the dense boxed path, tracing records every
// round, and a round budget stops the run at the same boundary.
func TestSleepRunHooks(t *testing.T) {
	ins := scFamilies()["random-f3k6"]
	observe := func(opt sim.Options) ([]sim.RoundInfo, sim.Stats) {
		progs, rounds := fracpackProgs(ins)
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
	ref, refStats := observe(sim.Options{NoWire: true})
	for _, opt := range []sim.Options{{}, {Engine: sim.Sharded, Workers: 3}} {
		got, st := observe(opt)
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
}
