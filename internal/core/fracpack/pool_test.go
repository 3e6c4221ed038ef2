package fracpack

import (
	"reflect"
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/sim"
)

func bipartiteEnvsForTest(ins *bipartite.Instance) []sim.Env {
	return sim.BipartiteEnvs(ins, sim.BipartiteParams(ins))
}

// TestProgramPoolReuse: runs served from recycled (Reset) subset and
// element programs must be bit-identical to fresh-program runs, run
// after run, on the interned and boxed delivery paths alike.
func TestProgramPoolReuse(t *testing.T) {
	ins := bipartite.Random(12, 30, 3, 6, 9, 17)
	ref := MustRun(ins, Options{})
	pool := &ProgramPool{}
	for _, noWire := range []bool{false, true} {
		for i := 0; i < 3; i++ {
			got := MustRun(ins, Options{Programs: pool, NoWire: noWire})
			if got.Stats.Messages != ref.Stats.Messages || got.Stats.Bytes != ref.Stats.Bytes {
				t.Fatalf("stats diverge: %+v != %+v", got.Stats, ref.Stats)
			}
			for s := range ref.Cover {
				if got.Cover[s] != ref.Cover[s] {
					t.Fatalf("cover diverges at subset %d", s)
				}
			}
			for u := range ref.Y {
				if !got.Y[u].Equal(ref.Y[u]) {
					t.Fatalf("element %d packing diverges", u)
				}
			}
		}
	}
}

// TestProgramPoolSetupAllocs: checking a warm slab out of the pool must
// be (amortised) allocation-free; Reset reuses the per-iteration
// buffers and the message arenas.
func TestProgramPoolSetupAllocs(t *testing.T) {
	ins := bipartite.Random(40, 100, 3, 6, 9, 5)
	envs := bipartiteEnvsForTest(ins)
	pool := &ProgramPool{}
	subs, elems := pool.Get(ins, envs)
	pool.Put(subs, elems)
	n := float64(ins.N())
	pooled := testing.AllocsPerRun(5, func() {
		s, e := pool.Get(ins, envs)
		pool.Put(s, e)
	})
	t.Logf("pooled setup: %.4f allocs/node", pooled/n)
	if pooled/n > 0.05 {
		t.Errorf("warm pool checkout costs %.4f allocs/node, budget 0.05", pooled/n)
	}

	// A weight snapshot moves Params.W but not the layout's shape: the
	// warm Reset rebinds to the shared step table and builds none.
	params := sim.BipartiteParams(ins)
	churn := params
	churn.W = params.W * 1000
	if a, b := layoutShape(params), layoutShape(churn); a.colours != b.colours || a.weakReps != b.weakReps {
		t.Fatalf("W=%d and W=%d differ in shape; the rebind is untested", params.W, churn.W)
	}
	envsW := sim.BipartiteEnvs(ins, churn)
	flip := false
	rebind := testing.AllocsPerRun(5, func() {
		e := envs
		if flip = !flip; flip {
			e = envsW
		}
		s, el := pool.Get(ins, e)
		pool.Put(s, el)
	})
	t.Logf("pooled setup across W changes: %.4f allocs/node", rebind/n)
	if rebind/n > 0.05 {
		t.Errorf("warm checkout across W changes costs %.4f allocs/node, budget 0.05", rebind/n)
	}
	s, el := pool.Get(ins, envsW)
	table := &newLayout(params).steps[0]
	for _, sp := range s {
		if &sp.lay.steps[0] != table {
			t.Fatal("a subset program holds its own step table")
		}
	}
	for _, ep := range el {
		if &ep.lay.steps[0] != table {
			t.Fatal("an element program holds its own step table")
		}
	}
	pool.Put(s, el)
}

// TestProgramsShareOneTable: programs of one layout shape hold one step
// table between them, whatever their weights and W.
func TestProgramsShareOneTable(t *testing.T) {
	var table *step
	for i := 0; i < 1000; i++ {
		p := sim.Params{F: 3, K: 6, W: int64(1 + i*7919)}
		var steps []step
		if i%2 == 0 {
			steps = NewSubset(sim.Env{Degree: 6, Weight: p.W, Kind: sim.KindSubset, Params: p}).lay.steps
		} else {
			steps = NewElement(sim.Env{Degree: 3, Kind: sim.KindElement, Params: p}).lay.steps
		}
		if table == nil {
			table = &steps[0]
		} else if &steps[0] != table {
			t.Fatalf("program %d (W=%d) holds a second step table", i, p.W)
		}
	}
}

// TestProgramPoolWeightRebind: pooled subset/element programs serve
// weight-snapshot reruns (same membership structure and declared
// bounds, fresh subset weights via bipartite.WeightView)
// bit-identically to fresh programs.
func TestProgramPoolWeightRebind(t *testing.T) {
	ins := bipartite.Random(12, 30, 3, 6, 9, 17)
	pool := &ProgramPool{}
	opts := Options{F: ins.MaxF(), K: ins.MaxK(), W: 16}
	for seed := int64(0); seed < 3; seed++ {
		w := make([]int64, ins.S())
		for i := range w {
			w[i] = 1 + (int64(i)*11+seed*7)%16
		}
		view := ins.WeightView(w)
		ref := MustRun(view, opts)
		pooled := opts
		pooled.Programs = pool
		got := MustRun(view, pooled)
		subs, elems := pool.Get(view, sim.BipartiteEnvs(view, sim.Params{F: opts.F, K: opts.K, W: opts.W}))
		table := &newLayout(subs[0].env.Params).steps[0]
		for _, sp := range subs {
			if &sp.lay.steps[0] != table {
				t.Fatalf("seed %d: a pooled subset program holds its own step table", seed)
			}
		}
		for _, ep := range elems {
			if &ep.lay.steps[0] != table {
				t.Fatalf("seed %d: a pooled element program holds its own step table", seed)
			}
		}
		pool.Put(subs, elems)
		if got.Stats.Messages != ref.Stats.Messages || got.Stats.Bytes != ref.Stats.Bytes {
			t.Fatalf("seed %d: stats diverge", seed)
		}
		for s := range ref.Cover {
			if got.Cover[s] != ref.Cover[s] {
				t.Fatalf("seed %d: cover diverges at subset %d", seed, s)
			}
		}
		for u := range ref.Y {
			if !got.Y[u].Equal(ref.Y[u]) {
				t.Fatalf("seed %d: element %d packing diverges", seed, u)
			}
		}
	}
}

// TestArenaResetDropsStalePayloads: after a large run, a reset and a
// smaller run, no message-arena slab may hold anything past its length.
// A stale entry there keeps an earlier run's rationals and abandoned
// relay slabs reachable for as long as the pooled program lives.
func TestArenaResetDropsStalePayloads(t *testing.T) {
	large := bipartite.Random(40, 70, 3, 6, 1000, 5)
	small := bipartite.Random(40, 70, 2, 4, 9, 6)
	pool := &ProgramPool{}
	MustRun(large, Options{Programs: pool})

	// The pool matches by node count, so Get resets the large run's
	// programs for the small instance.
	params := sim.BipartiteParams(small)
	subs, elems := pool.Get(small, sim.BipartiteEnvs(small, params))
	progs := make([]sim.BroadcastProgram, small.N())
	for v := range progs {
		if small.IsSubset(v) {
			progs[v] = subs[v]
		} else {
			progs[v] = elems[small.ElementIndex(v)]
		}
	}
	if _, err := sim.RunBroadcast(small, progs, Rounds(params), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	arenas := make([]*msgArena, 0, small.N())
	for _, p := range subs {
		arenas = append(arenas, &p.ar)
	}
	for _, p := range elems {
		arenas = append(arenas, &p.ar)
	}
	for i, a := range arenas {
		zeroTail(t, i, "ys", a.ys)
		zeroTail(t, i, "rs", a.rs)
		zeroTail(t, i, "xs", a.xs)
		zeroTail(t, i, "ps", a.ps)
		zeroTail(t, i, "ts", a.ts)
		zeroTail(t, i, "cs", a.cs)
		zeroTail(t, i, "ws", a.ws)
		zeroTail(t, i, "cls", a.cls)
	}
}

// zeroTail reports the first non-zero entry of a slab past its length.
func zeroTail[T any](t *testing.T, prog int, name string, s []T) {
	t.Helper()
	tail := s[len(s):cap(s)]
	for i := range tail {
		if !reflect.ValueOf(&tail[i]).Elem().IsZero() {
			t.Errorf("program %d: slab %s holds a stale entry at %d (len %d)", prog, name, len(s)+i, len(s))
			return
		}
	}
}
