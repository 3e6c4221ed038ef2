package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anoncover/internal/graph"
)

// RunPort executes port-numbering-model programs (one per node) for the
// given number of rounds and returns run statistics.  The error is
// non-nil only when the run stopped early — Options.Context cancelled,
// Options.RoundBudget exhausted (ErrRoundBudget) — or when an option
// the selected engine cannot honour was set; node outputs are unusable
// in that case.
func RunPort(top Topology, progs []PortProgram, rounds int, opt Options) (Stats, error) {
	r := &runner{top: top, port: progs, opt: opt}
	return r.run(rounds)
}

// RunBroadcast executes broadcast-model programs (one per node) for the
// given number of rounds and returns run statistics, with the same
// error contract as RunPort.
func RunBroadcast(top Topology, progs []BroadcastProgram, rounds int, opt Options) (Stats, error) {
	r := &runner{top: top, bcast: progs, opt: opt}
	return r.run(rounds)
}

// runner holds one execution; exactly one of port/bcast is non-nil.
type runner struct {
	top   Topology
	port  []PortProgram
	bcast []BroadcastProgram
	opt   Options

	round    int         // current round; workers read it after the barrier
	wireFail atomic.Bool // a SendWire reported an unencodable value
}

func (r *runner) n() int { return r.top.N() }

func (r *runner) isBroadcast() bool { return r.bcast != nil }

func (r *runner) checkSizes() {
	want := r.n()
	if r.port != nil && len(r.port) != want {
		panic(fmt.Sprintf("sim: %d programs for %d nodes", len(r.port), want))
	}
	if r.bcast != nil && len(r.bcast) != want {
		panic(fmt.Sprintf("sim: %d programs for %d nodes", len(r.bcast), want))
	}
}

func (r *runner) run(rounds int) (Stats, error) {
	r.checkSizes()
	if rounds < 0 {
		panic("sim: negative round count")
	}
	switch r.opt.Engine {
	case Sequential:
		return r.runSharded(rounds, 1)
	case Sharded:
		k := r.opt.Workers
		if k <= 0 {
			k = runtime.GOMAXPROCS(0)
		}
		return r.runSharded(rounds, k)
	case Distributed:
		// The runner owns the round loop; per-round facilities that
		// need a global barrier are structurally unavailable (each
		// shard advances on per-pair synchronization), so reject them
		// the way the CSP engine does.  Context and RoundBudget are
		// honoured at each shard's network barrier.
		switch {
		case r.opt.Dist == nil:
			return Stats{}, errors.New("sim: Engine Distributed needs Options.Dist (a dist runner)")
		case r.opt.Observer != nil:
			return Stats{}, errors.New("sim: the Distributed engine has no global barrier to call an Observer from")
		case r.opt.Trace:
			return Stats{}, errors.New("sim: Trace is not supported by the Distributed engine (no global barrier)")
		}
		if r.port != nil {
			return r.opt.Dist.RunPort(r.top, r.port, rounds, r.opt)
		}
		return r.opt.Dist.RunBroadcast(r.top, r.bcast, rounds, r.opt)
	case CSP:
		// The CSP engine has no global barrier, so every per-round
		// facility is structurally unavailable; reject rather than
		// silently ignore.  A context that can never be cancelled
		// (Done() == nil, e.g. context.Background) needs no barrier to
		// honour and is allowed through.
		switch {
		case r.opt.Observer != nil:
			return Stats{}, errors.New("sim: the CSP engine has no round barrier to call an Observer from")
		case r.opt.Trace:
			return Stats{}, errors.New("sim: Trace is not supported by the CSP engine (no global barrier)")
		case r.opt.Context != nil && r.opt.Context.Done() != nil:
			return Stats{}, errors.New("sim: Context cancellation is not supported by the CSP engine")
		case r.opt.RoundBudget > 0:
			return Stats{}, errors.New("sim: RoundBudget is not supported by the CSP engine")
		}
		return r.runCSP(rounds), nil
	}
	return Stats{}, fmt.Errorf("sim: unknown engine %v", r.opt.Engine)
}

// count tallies one delivered message into (msgs, bytes).
func count(m Message, msgs, bytes *int64) {
	if m == nil {
		return
	}
	*msgs++
	if s, ok := m.(Sizer); ok {
		*bytes += int64(s.WireSize())
	}
}

// counters is one shard's message tallies, padded so adjacent shards
// do not share a cache line during the send phase.
type counters struct {
	msgs, bytes int64
	_           [48]byte
}

// recv runs node v's receive step for the round on the CSP engine,
// scrambling broadcast delivery order when configured, as ShardStep
// does.
func (r *runner) recv(v, round int, in []Message) {
	if r.isBroadcast() {
		if r.opt.ScrambleSeed != 0 {
			scramble(in, r.opt.ScrambleSeed, v, round)
		}
		r.bcast[v].Recv(round, in)
		return
	}
	r.port[v].Recv(round, in)
}

// Phase identifiers dispatched through the worker pool.
const (
	phaseSend = iota
	phaseRecv
)

// workerPool is a persistent pool: goroutines are started once and
// re-dispatched every phase over per-worker channels, replacing the
// seed engine's 2×rounds×workers goroutine spawns.  A channel send of a
// phase id plus a WaitGroup completion is the entire per-phase barrier,
// and neither allocates, so the steady state of a run is allocation-free
// (asserted by TestEngineAllocsPerRound).  body is set per run (a
// checked-out pool outlives the run through sim.Pool); the channel send
// in dispatch publishes it to the workers.
type workerPool struct {
	body  func(w, phase int)
	start []chan int
	wg    sync.WaitGroup
}

// newWorkerPool starts `workers` goroutines that run the current body
// on dispatch.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{start: make([]chan int, workers)}
	for w := range p.start {
		p.start[w] = make(chan int, 1)
		go func(w int) {
			for phase := range p.start[w] {
				p.body(w, phase)
				p.wg.Done()
			}
		}(w)
	}
	return p
}

// dispatch runs one phase on every worker and waits for all to finish.
// The channel send happens-before the worker's execution and wg.Wait
// happens-after it, so shared state written between phases (the round
// number, the inbox) is safely published.
func (p *workerPool) dispatch(phase int) {
	p.wg.Add(len(p.start))
	for _, c := range p.start {
		c <- phase
	}
	p.wg.Wait()
}

// stop terminates the worker goroutines.
func (p *workerPool) stop() {
	for _, c := range p.start {
		close(c)
	}
}

// arenaFor checks an arena out of the run's Pool, or hands back a
// throwaway one; done returns it (and must run after the last use).
func (r *runner) arenaFor() (a *arena, done func()) {
	if p := r.opt.Pool; p != nil {
		a = p.getArena()
		return a, func() { p.putArena(a) }
	}
	return &arena{}, func() {}
}

// runPhases drives the barrier round loop of the Sequential and
// Sharded engines: a send phase and a receive phase per round,
// dispatched over a persistent worker pool (or run inline when
// workers == 1), with optional per-round tracing, context cancellation,
// a round budget, and an observer — all evaluated at the round barrier.
// counts holds one tally per shard that is summed into the Stats and,
// when an observer is set, fanned back in after every round.  A round
// for which idle (when non-nil) reports true is not dispatched at all;
// it still counts, is traced and is observed like any other.
func (r *runner) runPhases(rounds, workers int, body func(w, phase int), idle func(round int) bool, counts []counters) (Stats, error) {
	var pool *workerPool
	if workers > 1 {
		if p := r.opt.Pool; p != nil {
			pool = p.getWorkers(workers)
			pool.body = body
			defer r.opt.Pool.putWorkers(pool)
		} else {
			pool = newWorkerPool(workers)
			pool.body = body
			defer pool.stop()
		}
	}

	var stats Stats
	var err error
	trace := r.opt.Trace
	ctx := r.opt.Context
	budget := r.opt.RoundBudget
	observer := r.opt.Observer
	// A context deadline is checked against the wall clock directly:
	// ctx.Err() flips only when the runtime's timer goroutine fires the
	// cancellation, which a busy single-CPU process can starve for
	// milliseconds past the deadline — the barrier is the contract
	// point, so it must not serve rounds the deadline no longer covers.
	var deadline time.Time
	var hasDeadline bool
	if ctx != nil {
		deadline, hasDeadline = ctx.Deadline()
	}
	var ms runtime.MemStats
	if trace {
		stats.RoundNanos = make([]int64, 0, rounds)
		stats.RoundAllocs = make([]uint64, 0, rounds)
		stats.RoundSendNanos = make([]int64, 0, rounds)
		stats.RoundRecvNanos = make([]int64, 0, rounds)
	}
	for round := 1; round <= rounds; round++ {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				break
			}
			if hasDeadline && !time.Now().Before(deadline) {
				err = context.DeadlineExceeded
				break
			}
		}
		if budget > 0 && round > budget {
			err = ErrRoundBudget
			break
		}
		r.round = round
		var t0 time.Time
		var m0 uint64
		if trace {
			runtime.ReadMemStats(&ms)
			m0 = ms.Mallocs
			t0 = time.Now()
		}
		skip := idle != nil && idle(round)
		switch {
		case skip:
		case pool == nil:
			body(0, phaseSend)
		default:
			pool.dispatch(phaseSend)
		}
		var sendNS int64
		if trace {
			sendNS = time.Since(t0).Nanoseconds()
		}
		if r.wireFail.Load() {
			// A lane could not hold its value; receivers would decode
			// garbage, so stop at the phase barrier.  Program state is
			// unusable — the caller rebuilds and reruns boxed.
			err = ErrWireOverflow
			break
		}
		var t1 time.Time
		if trace {
			t1 = time.Now()
		}
		switch {
		case skip:
		case pool == nil:
			body(0, phaseRecv)
		default:
			pool.dispatch(phaseRecv)
		}
		stats.Rounds = round
		if trace {
			stats.RoundRecvNanos = append(stats.RoundRecvNanos, time.Since(t1).Nanoseconds())
			stats.RoundSendNanos = append(stats.RoundSendNanos, sendNS)
			stats.RoundNanos = append(stats.RoundNanos, time.Since(t0).Nanoseconds())
			runtime.ReadMemStats(&ms)
			stats.RoundAllocs = append(stats.RoundAllocs, ms.Mallocs-m0)
		}
		if observer != nil {
			info := RoundInfo{Round: round, Total: rounds}
			for w := range counts {
				info.Messages += counts[w].msgs
				info.Bytes += counts[w].bytes
			}
			observer(info)
		}
	}
	for w := range counts {
		stats.Messages += counts[w].msgs
		stats.Bytes += counts[w].bytes
	}
	return stats, err
}

// runCSP runs one goroutine per node.  Each undirected edge carries two
// cap-1 channels, one per direction.  Synchronous rounds emerge from the
// communication pattern itself (send to all ports, then receive from all
// ports): a node can run at most one round ahead of its neighbours, which
// a one-slot buffer absorbs, so the system is deadlock-free without any
// global barrier.
//
// The engine allocates its 2M channels afresh on every run and spawns a
// goroutine per node; it is deliberately kept in this naive shape as a
// semantic reference — an independently structured implementation the
// equivalence suite checks the optimized engines against — and is
// excluded from the bench matrix.
func (r *runner) runCSP(rounds int) Stats {
	n := r.n()
	maxEdge := -1
	for v := 0; v < n; v++ {
		for _, h := range r.top.Ports(v) {
			if h.Edge > maxEdge {
				maxEdge = h.Edge
			}
		}
	}
	// chans[2*e] carries low->high endpoint traffic, chans[2*e+1] the
	// reverse.
	chans := make([]chan Message, 2*(maxEdge+1))
	for i := range chans {
		chans[i] = make(chan Message, 1)
	}
	dir := func(v int, h graph.Half) int {
		if v < h.To {
			return 0
		}
		return 1
	}
	msgCounts := make([]int64, n)
	byteCounts := make([]int64, n)
	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			ports := r.top.Ports(v)
			in := make([]Message, len(ports))
			for round := 1; round <= rounds; round++ {
				if r.isBroadcast() {
					m := r.bcast[v].Send(round)
					for _, h := range ports {
						chans[2*h.Edge+dir(v, h)] <- m
						count(m, &msgCounts[v], &byteCounts[v])
					}
				} else {
					out := r.port[v].Send(round)
					if len(out) != len(ports) {
						panic(fmt.Sprintf("sim: node %d sent %d messages, degree %d", v, len(out), len(ports)))
					}
					for p, h := range ports {
						chans[2*h.Edge+dir(v, h)] <- out[p]
						count(out[p], &msgCounts[v], &byteCounts[v])
					}
				}
				for p, h := range ports {
					in[p] = <-chans[2*h.Edge+1-dir(v, h)]
				}
				r.recv(v, round, in)
			}
		}(v)
	}
	wg.Wait()
	var stats Stats
	stats.Rounds = rounds
	for v := 0; v < n; v++ {
		stats.Messages += msgCounts[v]
		stats.Bytes += byteCounts[v]
	}
	return stats
}

// scramble permutes msgs in place, deterministically in (seed, node,
// round), to exercise the broadcast model's unordered-multiset semantics.
func scramble(msgs []Message, seed int64, node, round int) {
	s := mix64(uint64(seed) ^ mix64(uint64(node)+0x1234) ^ mix64(uint64(round)+0xabcd))
	for i := len(msgs) - 1; i > 0; i-- {
		s = mix64(s)
		j := int(s % uint64(i+1))
		msgs[i], msgs[j] = msgs[j], msgs[i]
	}
}

// mix64 is the SplitMix64 finalizer, a cheap high-quality bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
