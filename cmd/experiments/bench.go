package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"time"

	"anoncover"
	"anoncover/internal/bipartite"
	"anoncover/internal/graph"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// benchRow is one cell of the scenario matrix, serialized into
// BENCH_<pr>.json so later PRs have a machine-readable perf trajectory
// to beat.  Wall times are measured on whatever machine runs the
// command; the file records the environment alongside the rows, and
// every row records the GOMAXPROCS it actually ran under — BENCH_1.json
// silently ran all parallel rows at gomaxprocs 1, which made them
// meaningless as parallelism measurements.
type benchRow struct {
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	// Mode distinguishes delivery paths and serving modes: the engine
	// matrix emits "wire" (the default unboxed path: word lanes for the
	// port workload, interned value tables for broadcast) and "boxed"
	// rows; the solver-reuse comparison emits "oneshot", "solver" and
	// "solver-boxed" rows.
	Mode string `json:"mode,omitempty"`
	// Workload names the measured workload: "throughput-20r" is the
	// broadcast message workload, "wireport-20r" the port-model
	// workload shaped like edgepack's Phase I offer rounds (two-word
	// rational lanes), "vertexcover" the real algorithm through the
	// public API.
	Workload string `json:"workload,omitempty"`
	// Gomaxprocs is runtime.GOMAXPROCS(0) during this row's run; for
	// sharded rows it is forced to at least Workers.
	Gomaxprocs     int     `json:"gomaxprocs"`
	Family         string  `json:"family"`
	N              int     `json:"n"`
	HalfEdges      int     `json:"half_edges"`
	CutEdges       int     `json:"cut_edges,omitempty"` // sharded rows: partition edge cut
	Rounds         int     `json:"rounds"`
	Messages       int64   `json:"messages"`
	Bytes          int64   `json:"bytes"`
	WallNS         int64   `json:"wall_ns"`
	NsPerNodeRound float64 `json:"ns_per_node_round"`
	// Per-round trace aggregates (sim.Stats.Rollup of a traced run).
	MeanRoundNS    int64   `json:"mean_round_ns,omitempty"`
	MaxRoundNS     int64   `json:"max_round_ns,omitempty"`
	P50RoundNS     int64   `json:"p50_round_ns,omitempty"`
	P99RoundNS     int64   `json:"p99_round_ns,omitempty"`
	AllocsPerRound float64 `json:"allocs_per_round,omitempty"`
	// Per-request latency percentiles (serving workloads, where each
	// sample is one HTTP request under concurrent load).
	P50NS int64 `json:"p50_ns,omitempty"`
	P99NS int64 `json:"p99_ns,omitempty"`
	// BatchOccupancy is the mean requests per pooled run for batched
	// serving rows (from /v1/stats).
	BatchOccupancy float64 `json:"batch_occupancy,omitempty"`
}

type benchFile struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the process default; individual rows may raise it
	// (see benchRow.Gomaxprocs).
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	RoundsPer  int        `json:"rounds_per_run"`
	Rows       []benchRow `json:"rows"`
}

// throughputProg is the engine-throughput workload: a broadcast program
// with a pre-boxed constant message and an order-insensitive fold, so
// the matrix measures simulator overhead rather than algorithm cost.
type throughputProg struct {
	msg sim.Message
	acc uint64
}

func (p *throughputProg) Init(env sim.Env)       {}
func (p *throughputProg) Send(r int) sim.Message { return p.msg }
func (p *throughputProg) Recv(r int, msgs []sim.Message) {
	for _, m := range msgs {
		p.acc += m.(uint64)
	}
}
func (p *throughputProg) Output() any { return p.acc }

// offerLike is the wireport workload's message: the shape of an
// edgepack Phase I offer — a fast-path rational whose wire size
// depends on its value, exactly like rational.Rat.WireBytes.
type offerLike struct{ n, d int64 }

func (m offerLike) WireSize() int {
	return (bits.Len64(uint64(m.n))+bits.Len64(uint64(m.d)))/8 + 2
}

// wirePortProg is the port-model throughput workload, faithful to
// edgepack's dominant rounds on both paths: the boxed path boxes one
// fresh offer per node per round and answers a WireSize query per
// delivered message (exactly what edgepack's boxed offer rounds cost),
// while the wire path encodes the same value into edgepack's 3-word
// [header, n, d] lane and tallies bytes once per node.
type wirePortProg struct {
	deg int
	out []sim.Message
	acc uint64
}

func newWirePortProg(deg int) *wirePortProg {
	return &wirePortProg{deg: deg, out: make([]sim.Message, deg)}
}

func (p *wirePortProg) offer(r int) offerLike {
	return offerLike{n: int64(r)<<8 | 0x55, d: int64(r)&7 + 1}
}

func (p *wirePortProg) Init(env sim.Env) {}
func (p *wirePortProg) Send(r int) []sim.Message {
	m := sim.Message(p.offer(r))
	for i := range p.out {
		p.out[i] = m
	}
	return p.out
}
func (p *wirePortProg) Recv(r int, msgs []sim.Message) {
	for _, m := range msgs {
		p.acc += uint64(m.(offerLike).n)
	}
}
func (p *wirePortProg) Output() any         { return p.acc }
func (p *wirePortProg) WireWords(r int) int { return 3 }
func (p *wirePortProg) SendWire(r int, out []uint64) (int64, int64, bool) {
	m := p.offer(r)
	hdr := uint64(r)<<3 | 1
	for q := 0; q < p.deg; q++ {
		out[3*q] = hdr
		out[3*q+1] = uint64(m.n)
		out[3*q+2] = uint64(m.d)
	}
	return int64(p.deg), int64(p.deg) * int64(m.WireSize()), true
}
func (p *wirePortProg) RecvWire(r int, in []uint64) {
	for q := 0; q < p.deg; q++ {
		p.acc += in[3*q+1]
	}
}

// benchTopologies builds the family × size matrix: grid, random-regular,
// power-law and bipartite set-cover instances, each at two sizes.  The
// CSR views are pre-built so flattening cost is not measured; sharded
// rows likewise pre-build their partitioned views (benchMatrix).
func benchTopologies(quick bool) []struct {
	family string
	flat   *graph.FlatTopology
	n      int
} {
	type entry = struct {
		family string
		flat   *graph.FlatTopology
		n      int
	}
	var out []entry
	sides := []int{32, 100}
	regs := []int{1000, 10000}
	pows := []int{1000, 10000}
	bips := []int{500, 5000}
	if quick {
		// The -quick smoke keeps one small instance per family so CI
		// can exercise the whole harness in seconds.
		sides, regs, pows, bips = sides[:1], regs[:1], pows[:1], bips[:1]
	}
	for _, side := range sides {
		g := graph.Grid(side, side)
		out = append(out, entry{fmt.Sprintf("grid-%dx%d", side, side), g.Flat(), g.N()})
	}
	for _, n := range regs {
		g := graph.RandomRegular(n, 6, int64(n))
		out = append(out, entry{fmt.Sprintf("regular-%d-6", n), g.Flat(), g.N()})
	}
	for _, n := range pows {
		g := graph.PowerLaw(n, 3, int64(n)+1)
		out = append(out, entry{fmt.Sprintf("powerlaw-%d", n), g.Flat(), g.N()})
	}
	for _, s := range bips {
		ins := bipartite.Random(s, 2*s, 3, 8, 9, int64(s))
		out = append(out, entry{fmt.Sprintf("bipartite-%d", s), ins.Flat(), ins.N()})
	}
	return out
}

// benchMatrix runs the engine × family × size × delivery-path scenario
// matrix and writes the results to path as JSON (regenerate with
// `go run ./cmd/experiments -exp bench [-out BENCH_<pr>.json]`;
// `-quick` shrinks it to a CI smoke).
//
// Every (engine, family, workload) cell is measured on both delivery
// paths — mode "wire" (the default unboxed path) and mode "boxed" —
// with interleaved sampling and a median-of-9 per mode, so machine
// drift cannot masquerade as a wire-path win.  Wall time is sampled
// untraced; a separate traced run records allocs/round (Options.Trace
// reads MemStats twice a round, which would dominate the fast cells).
// Earlier BENCH files sampled wall with tracing on, so absolute
// ns/node/round comparisons across PRs carry that caveat; the
// wire-vs-boxed ratios within one file do not.
//
// The CSP engine is excluded: it is a semantic reference for the
// equivalence suite (internal/sim/equiv_test.go), not a throughput
// engine, and benching its per-run channel allocation tells us nothing
// the suite does not.
func benchMatrix(path string, quick bool) {
	header("BENCH", "scenario matrix: engine × graph family × size × delivery path")
	const rounds = 20
	runs := 9
	if quick {
		runs = 3
	}
	engines := []struct {
		name    string
		engine  sim.Engine
		workers int
	}{
		{"sequential", sim.Sequential, 1},
		{"sharded-2", sim.Sharded, 2},
		{"sharded-4", sim.Sharded, 4},
		{"sharded-8", sim.Sharded, 8},
	}
	base := runtime.GOMAXPROCS(0)
	file := benchFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: base,
		NumCPU:     runtime.NumCPU(),
		RoundsPer:  rounds,
	}
	fmt.Println("| family | n | engine | procs | workload | boxed ns/n/r | wire ns/n/r | speedup | wire allocs/r |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, tp := range benchTopologies(quick) {
		for _, eng := range engines {
			// Pre-build the partitioned view (one shard for sequential),
			// like the flat CSR: the matrix measures execution, not
			// one-time partitioning.
			top := shard.BuildK(tp.flat, eng.workers)
			cut := top.Part().CutEdges
			// Sharded rows are meaningless below
			// GOMAXPROCS = workers; force it up for the row and restore
			// after, recording the value actually used.
			procs := base
			if eng.workers > procs {
				procs = eng.workers
				runtime.GOMAXPROCS(procs)
			}
			for _, wl := range []string{"throughput-20r", "wireport-20r"} {
				runOnce := func(noWire, trace bool) sim.Stats {
					opt := sim.Options{
						Engine: eng.engine, Workers: eng.workers,
						NoWire: noWire, Trace: trace,
					}
					var stats sim.Stats
					var err error
					if wl == "throughput-20r" {
						progs := make([]sim.BroadcastProgram, tp.n)
						for v := range progs {
							progs[v] = &throughputProg{msg: uint64(3)}
						}
						stats, err = sim.RunBroadcast(top, progs, rounds, opt)
					} else {
						progs := make([]sim.PortProgram, tp.n)
						for v := range progs {
							progs[v] = newWirePortProg(tp.flat.Deg(v))
						}
						stats, err = sim.RunPort(top, progs, rounds, opt)
					}
					if err != nil {
						panic(err)
					}
					return stats
				}
				sample := func(noWire bool) int64 {
					start := time.Now()
					runOnce(noWire, false)
					return time.Since(start).Nanoseconds()
				}
				// Warm both paths, then sample them interleaved.
				runOnce(false, false)
				runOnce(true, false)
				wireSamples := make([]int64, 0, runs)
				boxedSamples := make([]int64, 0, runs)
				for i := 0; i < runs; i++ {
					wireSamples = append(wireSamples, sample(false))
					boxedSamples = append(boxedSamples, sample(true))
				}
				emit := func(mode string, samples []int64, noWire bool) float64 {
					sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
					wall := samples[len(samples)/2]
					stats := runOnce(noWire, true)
					row := benchRow{
						Engine: eng.name, Workers: eng.workers, Mode: mode,
						Workload: wl, Gomaxprocs: procs,
						Family: tp.family, N: tp.n,
						HalfEdges: tp.flat.HalfEdges(), CutEdges: cut,
						Rounds: stats.Rounds, Messages: stats.Messages,
						Bytes: stats.Bytes, WallNS: wall,
						NsPerNodeRound: float64(wall) / float64(rounds) / float64(tp.n),
					}
					ru := stats.Rollup()
					row.MeanRoundNS = int64(ru.MeanNanos)
					row.MaxRoundNS = ru.MaxNanos
					row.P50RoundNS = ru.P50Nanos
					row.P99RoundNS = ru.P99Nanos
					row.AllocsPerRound = float64(ru.TotalAllocs) / float64(rounds)
					file.Rows = append(file.Rows, row)
					return row.NsPerNodeRound
				}
				wireNs := emit("wire", wireSamples, false)
				boxedNs := emit("boxed", boxedSamples, true)
				wireAllocs := file.Rows[len(file.Rows)-2].AllocsPerRound
				fmt.Printf("| %s | %d | %s | %d | %s | %.1f | %.1f | %.2fx | %.1f |\n",
					tp.family, tp.n, eng.name, procs, wl,
					boxedNs, wireNs, boxedNs/wireNs, wireAllocs)
			}
			if procs != base {
				runtime.GOMAXPROCS(base)
			}
		}
	}
	solverReuseRows(&file, quick)
	serverRows(&file, quick)
	fleetRows(&file, quick)
	stragglerRows(&file, quick)
	traceOverheadRows(&file, quick)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %d rows to %s\n", len(file.Rows), path)
}

// solverReuseRows measures the session API's compile-once amortization
// through the public package: anoncover.VertexCover (one-shot, paying
// flatten + shard partition + worker spawn per call) against repeated
// runs on one compiled anoncover.Solver, plus the same session forced
// onto the boxed delivery path ("solver-boxed") so the wire path's
// effect on the real algorithm is its own row.  Real algorithm, real
// graphs; all modes are sampled interleaved with per-mode medians.
func solverReuseRows(file *benchFile, quick bool) {
	fmt.Println("\nsolver reuse: one-shot vs compiled session vs boxed session (VertexCover, sharded-4)")
	fmt.Println("| family | n | mode | per-run | ns/node/round |")
	fmt.Println("|---|---|---|---|---|")
	scens := []struct {
		family string
		g      *anoncover.Graph
	}{
		{"grid-100x100", anoncover.GridGraph(100, 100)},
		{"powerlaw-2000", anoncover.PowerLawBoundedGraph(2000, 3, 12, 9)},
	}
	runs := 9
	if quick {
		scens = scens[1:]
		runs = 3
	}
	const workers = 4
	base := runtime.GOMAXPROCS(0)
	procs := base
	if workers > procs {
		procs = workers
		runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(base)
	}
	opts := []anoncover.Option{
		anoncover.WithEngine(anoncover.EngineSharded), anoncover.WithWorkers(workers),
	}
	for _, sc := range scens {
		sc.g.WeighRandom(9, 10)
		oneshot := func() *anoncover.VertexCoverResult {
			return anoncover.VertexCover(sc.g, opts...)
		}
		s, err := anoncover.Compile(sc.g, opts...)
		if err != nil {
			panic(err)
		}
		reuse := func() *anoncover.VertexCoverResult {
			res, err := s.VertexCover(context.Background())
			if err != nil {
				panic(err)
			}
			return res
		}
		reuseBoxed := func() *anoncover.VertexCoverResult {
			res, err := s.VertexCover(context.Background(), anoncover.WithoutWirePath())
			if err != nil {
				panic(err)
			}
			return res
		}
		// The per-run delta (the amortized setup) is a few percent of a
		// full algorithm run, so sample the two modes interleaved with
		// a normalized heap and report the medians — machine drift or a
		// GC cycle landing inside one sample would otherwise drown it.
		res := oneshot() // warmup; also records the scenario's stats
		reuse()
		reuseBoxed()
		sample := func(run func() *anoncover.VertexCoverResult) int64 {
			runtime.GC()
			start := time.Now()
			run()
			return time.Since(start).Nanoseconds()
		}
		oneSamples := make([]int64, 0, runs)
		reuseSamples := make([]int64, 0, runs)
		boxedSamples := make([]int64, 0, runs)
		for i := 0; i < runs; i++ {
			oneSamples = append(oneSamples, sample(oneshot))
			reuseSamples = append(reuseSamples, sample(reuse))
			boxedSamples = append(boxedSamples, sample(reuseBoxed))
		}
		s.Close()
		emit := func(mode string, samples []int64) {
			sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
			per := samples[len(samples)/2]
			row := benchRow{
				Engine: "sharded-4", Workers: workers, Mode: mode,
				Workload:   "vertexcover",
				Gomaxprocs: procs, Family: sc.family, N: sc.g.N(),
				HalfEdges: 2 * sc.g.M(), Rounds: res.Rounds,
				Messages: res.Messages, Bytes: res.Bytes, WallNS: per,
				NsPerNodeRound: float64(per) / float64(res.Rounds) / float64(sc.g.N()),
			}
			file.Rows = append(file.Rows, row)
			fmt.Printf("| %s | %d | %s | %v | %.1f |\n", sc.family, sc.g.N(), mode,
				time.Duration(per).Round(time.Microsecond), row.NsPerNodeRound)
		}
		emit("oneshot", oneSamples)
		emit("solver", reuseSamples)
		emit("solver-boxed", boxedSamples)
	}
	if !quick {
		solverReuseThroughputRows(file, procs)
	}
}

// solverReuseThroughputRows is the same comparison on the engine
// matrix's 20-round message workload — the many-cheap-requests shape
// the session API is built for, where per-call setup (flatten,
// partition, worker spawn, inbox allocation) dominates.  The oneshot
// mode rebuilds everything per run exactly as a one-shot call does;
// the solver mode runs against the session's pre-built sharded view
// and sim.Pool.
func solverReuseThroughputRows(file *benchFile, procs int) {
	fmt.Println("\nsolver reuse: 20-round throughput workload (sharded-4)")
	fmt.Println("| family | n | mode | per-run | ns/node/round |")
	fmt.Println("|---|---|---|---|---|")
	const rounds = 20
	const runs = 20
	const workers = 4
	scens := []struct {
		family string
		g      *graph.G
	}{
		{"grid-100x100", graph.Grid(100, 100)},
		{"powerlaw-10000", graph.PowerLaw(10000, 3, 10001)},
	}
	for _, sc := range scens {
		n := sc.g.N()
		runOnce := func(top sim.Topology, pool *sim.Pool) sim.Stats {
			progs := make([]sim.BroadcastProgram, n)
			for v := range progs {
				progs[v] = &throughputProg{msg: uint64(3)}
			}
			stats, err := sim.RunBroadcast(top, progs, rounds, sim.Options{
				Engine: sim.Sharded, Workers: workers, Pool: pool,
			})
			if err != nil {
				panic(err)
			}
			return stats
		}
		measure := func(mode string, run func() sim.Stats) {
			st := run() // warmup
			start := time.Now()
			for i := 0; i < runs; i++ {
				run()
			}
			per := time.Since(start).Nanoseconds() / runs
			row := benchRow{
				Engine: "sharded-4", Workers: workers, Mode: mode,
				Workload: "throughput-20r", Gomaxprocs: procs,
				Family: sc.family, N: n, HalfEdges: 2 * sc.g.M(),
				Rounds: st.Rounds, Messages: st.Messages, Bytes: st.Bytes,
				WallNS:         per,
				NsPerNodeRound: float64(per) / float64(rounds) / float64(n),
			}
			file.Rows = append(file.Rows, row)
			fmt.Printf("| %s | %d | %s | %v | %.1f |\n", sc.family, n, mode,
				time.Duration(per).Round(time.Microsecond), row.NsPerNodeRound)
		}
		measure("oneshot", func() sim.Stats {
			// A one-shot call flattens, partitions and spins workers
			// per request.
			return runOnce(sc.g, nil)
		})
		st := shard.BuildK(graph.MustFlatten(sc.g), workers)
		pool := sim.NewPool()
		measure("solver", func() sim.Stats {
			return runOnce(st, pool)
		})
		pool.Close()
	}
}
