package sim_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/core/bcastvc"
	"anoncover/internal/core/edgepack"
	"anoncover/internal/core/fracpack"
	"anoncover/internal/dist"
	"anoncover/internal/graph"
	"anoncover/internal/rational"
	"anoncover/internal/selfstab"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// This file is the cross-engine equivalence suite: for every algorithm
// package in the repo it asserts that the Sequential reference engine,
// (the round kernel on one shard), the Sharded engine (the same kernel)
// at several shard counts, the Distributed engine, and the CSP engine
// produce bit-identical outputs and identical message/byte statistics,
// across multiple graph families and broadcast scramble seeds.  It is the
// contract that lets the engines be rewritten for speed (as PR 1 did)
// without touching algorithm code.  (The colour package is a pure
// library with no engine dependence; it is exercised here through
// edgepack and bcastvc, which both run Cole–Vishkin colour reduction
// internally.)  CI runs `go test -run Equiv ./internal/sim/` as a fast
// gate plus the full `go test -race ./...` on every push.

// engineVariant is one engine configuration under test.  The barrier
// engines appear twice: once on their default delivery path (word
// lanes for qualifying port programs) and once forced onto the boxed
// path, so the matrices pin wire and boxed rows against each other and
// against the CSP oracle, which is always boxed.  Broadcast programs
// have one delivery path, so their two rows run it twice.
type engineVariant struct {
	name    string
	engine  sim.Engine
	workers int
	noWire  bool
	dist    sim.DistRunner
}

func engineVariants() []engineVariant {
	return []engineVariant{
		{"sequential", sim.Sequential, 0, false, nil},
		{"sequential-boxed", sim.Sequential, 0, true, nil},
		// The parallel-* rows keep the labels of the worker-pool engine
		// that Sharded absorbed, so the suite's subtest names stay
		// stable; each runs Sharded at that worker count (the meaning of
		// the public EngineParallel alias), wire and boxed.
		{"parallel-2", sim.Sharded, 2, false, nil},
		{"parallel-2-boxed", sim.Sharded, 2, true, nil},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), sim.Sharded, runtime.GOMAXPROCS(0), false, nil},
		{"sharded-2", sim.Sharded, 2, false, nil},
		{"sharded-4", sim.Sharded, 4, false, nil},
		{"sharded-4-boxed", sim.Sharded, 4, true, nil},
		{"csp", sim.CSP, 0, false, nil},
		// Distributed rows run the loopback cluster: in-process shard
		// workers exchanging halo frames over real 127.0.0.1 sockets,
		// so the multi-process wire path sits inside the same
		// bit-identity contract as the in-memory engines.
		{"distributed-2", sim.Distributed, 0, false, distCluster(2)},
		{"distributed-2-boxed", sim.Distributed, 0, true, distCluster(2)},
		{"distributed-3", sim.Distributed, 0, false, distCluster(3)},
	}
}

// distClusters are shared across the suite: a cluster holds no sockets
// between runs (each run dials its own mesh) and serializes runs, so
// reuse is safe and keeps the matrix readable.
var (
	distClustersMu sync.Mutex
	distClusters   = map[int]*dist.Cluster{}
)

func distCluster(k int) *dist.Cluster {
	distClustersMu.Lock()
	defer distClustersMu.Unlock()
	if c := distClusters[k]; c != nil {
		return c
	}
	c := dist.NewCluster(k)
	distClusters[k] = c
	return c
}

var scrambleSeeds = []int64{1, 42, 9999}

// vcFamilies are the vertex-cover graph families: a grid, a random
// regular graph, a power-law graph and a bounded-degree random graph,
// all weighted.
func vcFamilies() map[string]*graph.G {
	fams := map[string]*graph.G{
		"grid-6x7":     graph.Grid(6, 7),
		"regular-40-4": graph.RandomRegular(40, 4, 11),
		"powerlaw-45":  graph.PowerLaw(45, 2, 12),
		"bounded-50":   graph.RandomBoundedDegree(50, 100, 6, 13),
	}
	for name, g := range fams {
		graph.RandomWeights(g, 25, int64(len(name)))
	}
	return fams
}

// scFamilies are the set-cover instance families: random instances at
// two (f, k) shapes, the incidence instance of a graph, and the
// fully-symmetric lower-bound instance.
func scFamilies() map[string]*bipartite.Instance {
	inc := graph.RandomBoundedDegree(14, 24, 4, 21)
	graph.RandomWeights(inc, 9, 22)
	return map[string]*bipartite.Instance{
		"random-f2k5":  bipartite.Random(10, 22, 2, 5, 9, 23),
		"random-f3k6":  bipartite.Random(12, 28, 3, 6, 9, 24),
		"incidence":    bipartite.FromGraph(inc),
		"symmetric-k5": bipartite.SymmetricKpp(5),
	}
}

// mustEqualStats asserts the engine-independent Stats fields agree.
func mustEqualStats(t *testing.T, ref, got sim.Stats) {
	t.Helper()
	if got.Rounds != ref.Rounds || got.Messages != ref.Messages || got.Bytes != ref.Bytes {
		t.Fatalf("stats diverge: rounds %d/%d, messages %d/%d, bytes %d/%d",
			got.Rounds, ref.Rounds, got.Messages, ref.Messages, got.Bytes, ref.Bytes)
	}
}

func mustEqualCover(t *testing.T, ref, got []bool) {
	t.Helper()
	for v := range ref {
		if got[v] != ref[v] {
			t.Fatalf("cover diverges at node %d: %v != %v", v, got[v], ref[v])
		}
	}
}

func mustEqualRats(t *testing.T, what string, ref, got []rational.Rat) {
	t.Helper()
	for i := range ref {
		if !got[i].Equal(ref[i]) {
			t.Fatalf("%s diverges at %d: %v != %v", what, i, got[i], ref[i])
		}
	}
}

// TestEquivEdgepack: the Section 3 port-model vertex cover algorithm
// must be engine-independent in outputs and message statistics.
func TestEquivEdgepack(t *testing.T) {
	for name, g := range vcFamilies() {
		t.Run(name, func(t *testing.T) {
			ref := edgepack.MustRun(g, edgepack.Options{Engine: sim.Sequential})
			for _, ev := range engineVariants() {
				t.Run(ev.name, func(t *testing.T) {
					got := edgepack.MustRun(g, edgepack.Options{Engine: ev.engine, Workers: ev.workers, NoWire: ev.noWire, Dist: ev.dist})
					mustEqualCover(t, ref.Cover, got.Cover)
					mustEqualRats(t, "edge packing y", ref.Y, got.Y)
					mustEqualStats(t, ref.Stats, got.Stats)
				})
			}
		})
	}
}

// bcastFamilies are smaller than vcFamilies with Δ capped at 4: the
// broadcast-model algorithm simulates the set-cover machinery over
// growing message histories, so its cost explodes in Δ and W (the
// paper's Section 5 trades message size for anonymity; experiment e10
// runs it at n=12, and a single Δ=6 power-law hub costs minutes).
func bcastFamilies() map[string]*graph.G {
	fams := map[string]*graph.G{
		"grid-3x4":        graph.Grid(3, 4),
		"regular-12-3":    graph.RandomRegular(12, 3, 31),
		"caterpillar-4x2": graph.Caterpillar(4, 2),
		"bounded-14":      graph.RandomBoundedDegree(14, 18, 4, 33),
	}
	for name, g := range fams {
		graph.RandomWeights(g, 6, int64(len(name)))
	}
	return fams
}

// TestEquivBcastvc: the Section 5 broadcast-model vertex cover
// algorithm, additionally across delivery-order scramble seeds (correct
// broadcast programs may not depend on delivery order).
func TestEquivBcastvc(t *testing.T) {
	for name, g := range bcastFamilies() {
		t.Run(name, func(t *testing.T) {
			ref := bcastvc.MustRun(g, bcastvc.Options{Engine: sim.Sequential})
			for _, ev := range engineVariants() {
				for _, seed := range scrambleSeeds {
					t.Run(fmt.Sprintf("%s/seed%d", ev.name, seed), func(t *testing.T) {
						got := bcastvc.MustRun(g, bcastvc.Options{
							Engine: ev.engine, Workers: ev.workers, ScrambleSeed: seed, NoWire: ev.noWire, Dist: ev.dist,
						})
						mustEqualCover(t, ref.Cover, got.Cover)
						mustEqualRats(t, "edge y", ref.Y, got.Y)
						mustEqualStats(t, ref.Stats, got.Stats)
						if got.MaxMsgBytes != ref.MaxMsgBytes {
							t.Fatalf("max message bytes %d != %d", got.MaxMsgBytes, ref.MaxMsgBytes)
						}
					})
				}
			}
		})
	}
}

// TestEquivFracpack: the Section 4 set-cover algorithm on bipartite
// instances, across engines and scramble seeds.
func TestEquivFracpack(t *testing.T) {
	for name, ins := range scFamilies() {
		t.Run(name, func(t *testing.T) {
			ref := fracpack.MustRun(ins, fracpack.Options{Engine: sim.Sequential})
			for _, ev := range engineVariants() {
				for _, seed := range scrambleSeeds {
					t.Run(fmt.Sprintf("%s/seed%d", ev.name, seed), func(t *testing.T) {
						got := fracpack.MustRun(ins, fracpack.Options{
							Engine: ev.engine, Workers: ev.workers, ScrambleSeed: seed, NoWire: ev.noWire, Dist: ev.dist,
						})
						mustEqualCover(t, ref.Cover, got.Cover)
						mustEqualRats(t, "element y", ref.Y, got.Y)
						mustEqualStats(t, ref.Stats, got.Stats)
					})
				}
			}
		})
	}
}

// TestEquivFlatTopologyAsInput: passing a pre-flattened CSR topology to
// the engines must be indistinguishable from passing the original graph
// — same outputs, same statistics.
func TestEquivFlatTopologyAsInput(t *testing.T) {
	for name, g := range vcFamilies() {
		t.Run(name, func(t *testing.T) {
			params := sim.GraphParams(g)
			envs := sim.GraphEnvs(g, params)
			run := func(top sim.Topology, ev engineVariant) ([]any, sim.Stats) {
				progs := make([]sim.PortProgram, g.N())
				nodes := make([]*edgepack.Program, g.N())
				for v := range progs {
					nodes[v] = edgepack.New(envs[v])
					progs[v] = nodes[v]
				}
				stats, err := sim.RunPort(top, progs, edgepack.Rounds(params), sim.Options{
					Engine: ev.engine, Workers: ev.workers, NoWire: ev.noWire, Dist: ev.dist,
				})
				if err != nil {
					t.Fatal(err)
				}
				outs := make([]any, g.N())
				for v := range outs {
					outs[v] = nodes[v].Output()
				}
				return outs, stats
			}
			refOut, refStats := run(g, engineVariant{engine: sim.Sequential})
			check := func(t *testing.T, top sim.Topology, ev engineVariant) {
				gotOut, gotStats := run(top, ev)
				mustEqualStats(t, refStats, gotStats)
				for v := range refOut {
					if fmt.Sprintf("%v", gotOut[v]) != fmt.Sprintf("%v", refOut[v]) {
						t.Fatalf("node %d output diverges on %T input", v, top)
					}
				}
			}
			flat := g.Flat()
			for _, ev := range engineVariants() {
				t.Run(ev.name, func(t *testing.T) { check(t, flat, ev) })
			}
			// Compiled sessions hand Sequential a pre-built one-shard
			// view; the kernel must run on it as is.
			view := shard.BuildK(flat, 1)
			for _, ev := range engineVariants()[:2] {
				t.Run("one-shard-view/"+ev.name, func(t *testing.T) { check(t, view, ev) })
			}
		})
	}
}

// TestEquivDegenerateTopologies: the empty graph and a single isolated
// node have no half-edges, so the kernel's one shard has nothing to
// route.  Sequential must still run the full schedule on every input
// form — graph, flat topology, one-shard view — on both delivery paths,
// matching the CSP oracle.
func TestEquivDegenerateTopologies(t *testing.T) {
	single := graph.NewBuilder(1).Build()
	single.SetWeight(0, 7)
	for name, g := range map[string]*graph.G{
		"empty":       graph.NewBuilder(0).Build(),
		"single-node": single,
	} {
		t.Run(name, func(t *testing.T) {
			flat := g.Flat()
			inputs := []struct {
				name string
				top  sim.Topology
			}{{"graph", g}, {"flat", flat}, {"one-shard-view", shard.BuildK(flat, 1)}}
			run := func(top sim.Topology, opt sim.Options) ([]uint64, sim.Stats) {
				progs := make([]sim.PortProgram, g.N())
				nodes := make([]*laneProg, g.N())
				for v := range progs {
					nodes[v] = &laneProg{deg: g.Deg(v), state: uint64(v) + 1}
					progs[v] = nodes[v]
				}
				stats, err := sim.RunPort(top, progs, 7, opt)
				if err != nil {
					t.Fatal(err)
				}
				outs := make([]uint64, g.N())
				for v := range outs {
					outs[v] = nodes[v].state
				}
				return outs, stats
			}
			refOut, refStats := run(g, sim.Options{Engine: sim.CSP})
			if refStats.Rounds != 7 {
				t.Fatalf("CSP oracle ran %d rounds, want 7", refStats.Rounds)
			}
			refVC := edgepack.MustRun(g, edgepack.Options{Engine: sim.CSP})
			for _, in := range inputs {
				for _, ev := range engineVariants()[:2] {
					t.Run(in.name+"/"+ev.name, func(t *testing.T) {
						out, stats := run(in.top, sim.Options{Engine: ev.engine, NoWire: ev.noWire})
						mustEqualStats(t, refStats, stats)
						for v := range refOut {
							if out[v] != refOut[v] {
								t.Fatalf("node %d state %x != %x", v, out[v], refOut[v])
							}
						}
						got := edgepack.MustRun(g, edgepack.Options{
							Engine: ev.engine, NoWire: ev.noWire, Topology: in.top,
						})
						mustEqualCover(t, refVC.Cover, got.Cover)
						mustEqualStats(t, refVC.Stats, got.Stats)
					})
				}
			}
		})
	}
}

// TestEquivShardedTopologyAsInput: passing a pre-built sharded view to
// the engines must be indistinguishable from passing the original graph
// — the sharded engine reuses its partition and routing, every other
// engine sees it as a plain port structure.
func TestEquivShardedTopologyAsInput(t *testing.T) {
	for name, g := range vcFamilies() {
		t.Run(name, func(t *testing.T) {
			ref := edgepack.MustRun(g, edgepack.Options{Engine: sim.Sequential})
			st := shard.BuildK(g.Flat(), 4)
			params := sim.GraphParams(g)
			envs := sim.GraphEnvs(g, params)
			for _, ev := range engineVariants() {
				t.Run(ev.name, func(t *testing.T) {
					progs := make([]sim.PortProgram, g.N())
					nodes := make([]*edgepack.Program, g.N())
					for v := range progs {
						nodes[v] = edgepack.New(envs[v])
						progs[v] = nodes[v]
					}
					stats, err := sim.RunPort(st, progs, edgepack.Rounds(params), sim.Options{
						Engine: ev.engine, Workers: ev.workers, NoWire: ev.noWire, Dist: ev.dist,
					})
					if err != nil {
						t.Fatal(err)
					}
					mustEqualStats(t, ref.Stats, stats)
					for v := range nodes {
						nr := nodes[v].Output().(edgepack.NodeResult)
						if nr.InCover != ref.Cover[v] {
							t.Fatalf("node %d cover bit diverges on sharded topology", v)
						}
					}
				})
			}
		})
	}
}

// TestEquivSelfstab: the self-stabilising transformation (which steps
// nodes through its own scheduler rather than the sim engines) must
// converge to exactly the output the engine-executed algorithm
// computes, on every family.  This ties the selfstab and colour
// packages into the equivalence contract.
func TestEquivSelfstab(t *testing.T) {
	for name, g := range vcFamilies() {
		t.Run(name, func(t *testing.T) {
			params := sim.GraphParams(g)
			envs := sim.GraphEnvs(g, params)
			factories := make([]selfstab.Factory, g.N())
			for v := range factories {
				env := envs[v]
				factories[v] = func() sim.PortProgram { return edgepack.New(env) }
			}
			// The reference runs on the Distributed engine, so the
			// self-stabilised outputs are pinned directly against the
			// multi-process wire path (which TestEquivEdgepack in turn
			// pins against Sequential).
			ref := edgepack.MustRun(g, edgepack.Options{Engine: sim.Distributed, Dist: distCluster(2)})
			outs := selfstab.Run(g, edgepack.Rounds(params), factories)
			for v, out := range outs {
				nr, ok := out.(edgepack.NodeResult)
				if !ok {
					t.Fatalf("node %d: unexpected output %T", v, out)
				}
				if nr.InCover != ref.Cover[v] {
					t.Fatalf("node %d: self-stabilised cover bit %v != engine %v",
						v, nr.InCover, ref.Cover[v])
				}
			}
		})
	}
}
