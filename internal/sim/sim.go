// Package sim is the synchronous anonymous-network runtime on which the
// paper's algorithms execute (Section 1.3 of Åstrand & Suomela, SPAA 2010).
//
// During each synchronous communication round every node, in parallel,
// (i) performs local computation, (ii) sends one message to each
// neighbour, (iii) waits while messages propagate, and (iv) receives one
// message from each neighbour.  Two addressing models are supported:
//
//   - Port-numbering model: a node of degree d refers to its neighbours
//     by ports 1..d; it may send a different message through each port and
//     knows which port each received message came through.
//   - Broadcast model: a node sends one message to all neighbours and
//     receives an unordered multiset; it cannot tell which message came
//     from which neighbour.  Engines can scramble delivery order so that
//     tests catch programs that illegally depend on it.
//
// Programs are deterministic state machines that see only their own
// degree, weight, node kind and the global parameters — never node
// identifiers or n.  One per-shard round step (ShardStep) executes
// them: the topology is split into degree-balanced shards
// (internal/shard), each with a compact local inbox and a precomputed
// route table, and cut-edge messages cross through double-buffered
// halo buffers.  The in-process round kernel hands those buffers from
// shard to shard at its phase barrier: the Sequential engine is that
// kernel with one shard and one worker — the reference every other
// engine is held to — and the Sharded engine runs it with k shards on a
// persistent worker pool.  The Distributed engine runs the same step in
// separate processes and ships the halo buffers as frames
// (internal/dist).  The CSP engine shares the contract but not the
// step: it runs one goroutine per node with channel-per-edge lockstep,
// kept as an independent semantic reference and test oracle.
//
// Both *graph.G and *bipartite.Instance are flattened into a CSR view
// (graph.FlatTopology) and partitioned per run; a pre-built
// *shard.Topology whose shard count matches the run is used directly,
// which is how compiled solver sessions amortize flattening and
// partitioning across runs.  The steady state of a run is
// allocation-free.
//
// What moves through the inboxes depends on the delivery path.  By
// default the kernel takes the unboxed wire path (wire.go): a port
// program that implements WirePortProgram declares a fixed per-round
// lane width in 8-byte words and the inboxes become flat []uint64 —
// sends encode into word lanes, scatters and halo exchange are plain
// word copies, and receives decode the node's contiguous lane slice,
// with no interface values on the hot path.  Rounds whose payloads do
// not fit a fixed width (a program returns lane width 0 for them)
// travel through the boxed []Message inboxes instead, so a program can
// keep tight lanes for its dominant rounds and box only the fat ones.
// Broadcast programs have one path: each node's one value per round
// goes into its value slot and its cut-edge halo slots, and receivers
// gather it through a sender table, with no per-half-edge scatter
// inside a shard.  Options.NoWire forces the fully boxed port path; a
// wire value that outgrows its lane aborts with ErrWireOverflow and
// the algorithm packages rerun boxed, so results never depend on the
// path taken.
//
// Both models skip silent node-rounds.  A program that implements
// Sleeper promises, after each Recv(r), a round w > r before which it
// sends only nil and ignores an all-nil inbox.  The kernel then skips a
// sleeping node's Send and Recv; a live message (non-nil, or a lane
// with a non-zero word 0) wakes its receiver for that round's Recv
// only, and a shard with nothing due and nothing woken skips the round
// in O(1).  Both models sleep in ShardStep, so the in-process engines
// and the Distributed engine sleep alike, per shard whose programs all
// do; a node that sleeps past the next round has its halo-out slots of
// both parities, its value slot and its boxed inbox slots cleared
// (ShardStep gives the details).  Nil messages are never counted, so
// Stats do not change.  The CSP engine and runs of programs that are
// not Sleepers stay dense, and they are the references sleeping runs
// are held to.
//
// Sharding is an execution detail only: observable behaviour — outputs
// and Stats — must stay bit-identical to the synchronous port-numbering
// semantics of the one-shard reference, whatever the partition.
//
// All engines produce bit-identical outputs and identical
// Messages/Bytes statistics, which equiv_test.go locks down across every
// algorithm package in the repo.  Options.Trace additionally records
// per-round wall time and allocation counts (kernel engines only).
package sim

import (
	"context"
	"errors"
	"fmt"

	"anoncover/internal/bipartite"
	"anoncover/internal/graph"
)

// Message is an immutable value exchanged between nodes.  nil means
// "no payload this round" and is delivered like any other message but not
// counted in the statistics.
type Message any

// Sizer lets a message report its wire size in bytes for the message-
// complexity experiments.  Messages without WireSize count 0 bytes.
type Sizer interface{ WireSize() int }

// NodeKind distinguishes the two sides of a bipartite set-cover instance.
type NodeKind int

const (
	KindPlain NodeKind = iota
	KindSubset
	KindElement
)

// Params carries the global parameters all nodes are assumed to know
// (paper Section 1.4): Δ and W for vertex cover, f, k and W for set cover.
type Params struct {
	Delta int
	F, K  int
	W     int64
}

// Env is the entire local knowledge a node starts with.
type Env struct {
	Degree int
	Weight int64
	Kind   NodeKind
	Params Params
}

// PortProgram is a node program in the port-numbering model.
type PortProgram interface {
	// Init is called once before round 1.
	Init(env Env)
	// Send returns the outgoing message for each port in round r
	// (1-based).  The result must have length env.Degree.
	Send(r int) []Message
	// Recv delivers round r's incoming messages; msgs[p] arrived
	// through port p.  The slice is reused by the engine: programs must
	// not retain it.
	Recv(r int, msgs []Message)
	// Output returns the node's final output after the last round.
	Output() any
}

// BroadcastProgram is a node program in the broadcast model.
type BroadcastProgram interface {
	Init(env Env)
	// Send returns the single message broadcast in round r.
	Send(r int) Message
	// Recv delivers the multiset of round-r messages in arbitrary
	// order.  Programs must not depend on the order or retain the slice.
	Recv(r int, msgs []Message)
	Output() any
}

// Sleeper is an optional interface of a BroadcastProgram or PortProgram
// whose schedule has rounds in which it neither speaks nor listens.  The
// kernel calls SleepUntil(r) after the node's Recv(r); the result w
// must exceed r, and it is a promise about every round t with
// r < t < w: Send(t) returns nil (a port program: nil on every port;
// on the wire path, SendWire marks every lane idle and tallies
// nothing), and Recv(t, msgs) with every message nil (on the wire path,
// RecvWire with every lane idle or stale) leaves the program's state
// unchanged.  The kernel then skips the node's Send and Recv (and a
// broadcast node's gather) in those rounds unless a neighbour's live
// message wakes it, in which case it runs that round's Recv (never its
// Send) and is asked again.  A promise past the run's last round means
// the rest of the run.  Programs that cannot keep the promise simply
// do not implement the interface.  Broadcast runs sleep only when every
// program does, port runs per shard whose programs all do.  A sleeping
// wire program has idle lanes, so it keeps one lane width for all its
// wire rounds, as WirePortProgram requires of such programs.
//
// A program type must implement SleepUntil for its own Send and Recv.
// A type that embeds a Sleeper and overrides Send or Recv inherits a
// promise it does not keep: hold the inner program as a named field
// instead.
type Sleeper interface {
	SleepUntil(r int) int
}

// Topology is the simulator-side wiring.  *graph.G and
// *bipartite.Instance both satisfy it.
type Topology interface {
	N() int
	Deg(v int) int
	Ports(v int) []graph.Half
}

var (
	_ Topology = (*graph.G)(nil)
	_ Topology = (*bipartite.Instance)(nil)
	_ Topology = (*graph.FlatTopology)(nil)
)

// Engine selects an execution strategy.
type Engine int

const (
	// Sequential is the reference engine: the round kernel with one
	// shard stepped by one worker, nodes in index order.
	Sequential Engine = iota
	// CSP runs one goroutine per node; rounds emerge from cap-1
	// channel communication with no global barrier.  It allocates two
	// channels per edge on every run and is retained as a semantic
	// reference and equivalence-test oracle, not a throughput engine;
	// the bench matrix excludes it.
	CSP
	// Sharded partitions the topology into degree-balanced shards
	// (internal/shard) and runs the round kernel with one pinned worker
	// per shard, each stepping its nodes against a compact local inbox
	// via a precomputed route table; cut-edge messages cross through
	// double-buffered halo buffers flushed at the phase barrier.
	// Options.Workers sets the shard count.
	Sharded
	// Distributed runs the sharded execution plan across processes:
	// each shard is owned by a worker that runs the same ShardStep as
	// the in-process kernel and exchanges its halo-out buffers as
	// length-prefixed TCP frames, with per-pair generation-counted
	// synchronization instead of a global barrier.  The transport lives
	// in internal/dist (sim cannot import it); a run selects it by
	// setting Options.Dist to a dist runner (e.g. a loopback cluster)
	// and the runner is handed the topology, programs and options
	// verbatim.  Broadcast rounds always travel boxed there.
	Distributed
)

func (e Engine) String() string {
	switch e {
	case Sequential:
		return "sequential"
	case CSP:
		return "csp"
	case Sharded:
		return "sharded"
	case Distributed:
		return "distributed"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// DistRunner executes a run across processes on behalf of the
// Distributed engine.  Implementations live in internal/dist; sim only
// defines the seam so algorithm packages can thread a runner through
// their Options without an import cycle.  The runner must honour the
// engine contract: outputs and Stats bit-identical to the Sequential
// reference engine, errors per the RunPort/RunBroadcast documentation.
type DistRunner interface {
	RunPort(top Topology, progs []PortProgram, rounds int, opt Options) (Stats, error)
	RunBroadcast(top Topology, progs []BroadcastProgram, rounds int, opt Options) (Stats, error)
}

// RoundInfo is the per-round progress snapshot handed to an
// Options.Observer after each completed round.  Messages and Bytes are
// cumulative through the reported round: the barrier engines fan the
// per-worker tallies back in at the round barrier, so the snapshot is
// exact whatever the worker or shard count.
type RoundInfo struct {
	Round    int   // 1-based round just completed
	Total    int   // rounds in this run's schedule
	Messages int64 // messages delivered through this round
	Bytes    int64 // payload bytes delivered through this round
}

// ErrRoundBudget is returned by a run that needed more rounds than its
// Options.RoundBudget allowed.  The run stops at the budget boundary;
// node outputs are unusable (the schedule did not complete).
var ErrRoundBudget = errors.New("sim: round budget exhausted before the schedule completed")

// Options configure a run.
type Options struct {
	Engine Engine
	// Workers is the Sharded engine's shard count; 0 means GOMAXPROCS.
	Workers int
	// ScrambleSeed, when non-zero, shuffles broadcast delivery order
	// deterministically per (node, round).  Correct broadcast programs
	// must produce identical outputs for every seed.
	ScrambleSeed int64
	// Context, when non-nil, is polled at every round barrier; a
	// cancelled or expired context stops the run, which returns
	// Context.Err().  Barrier engines only.
	Context context.Context
	// RoundBudget, when positive, caps the number of rounds executed:
	// a run whose schedule needs more returns ErrRoundBudget at the
	// budget boundary.  Barrier engines only.
	RoundBudget int
	// Observer, when non-nil, is called after each completed round with
	// a cumulative progress snapshot, on the goroutine driving the run.
	// Barrier engines only (the CSP engine has no global barrier and
	// the run returns an error if an observer is set).
	Observer func(RoundInfo)
	// NoWire forces the boxed delivery path: port-model programs run
	// through Send/Recv even when they implement WirePortProgram.
	// Outputs and Stats are identical either way (the equivalence
	// suite asserts it); the switch exists for those tests and for
	// ablation benchmarks.  Broadcast programs have one delivery path
	// (per-node value slots, see ShardStep) and ignore it, so a dense
	// broadcast reference is a run of programs that are not Sleepers.
	// Barrier engines only; the CSP engine is always boxed.
	NoWire bool
	// Dist supplies the process-spanning runner the Distributed engine
	// delegates to; required when Engine == Distributed, ignored
	// otherwise.  See DistRunner.
	Dist DistRunner
	// Pool, when non-nil, supplies reusable execution resources —
	// persistent worker pools and recycled inbox/message arenas — so
	// back-to-back runs skip the per-run goroutine spawn and O(E)
	// buffer allocations.  Safe for concurrent runs: each run checks
	// resources out and returns them.  Barrier engines only; the CSP
	// engine ignores it.
	Pool *Pool
	// Trace records per-round wall time and allocation counts into
	// Stats.RoundNanos/RoundAllocs.  Barrier engines only (the CSP
	// engine has no global barrier and the run returns an error if
	// Trace is set).  Tracing reads runtime.MemStats twice per round,
	// so it perturbs absolute timings; use it for profiles, not for
	// ns-level claims.
	Trace bool
}

// Stats summarizes a completed run.  Rounds, Messages and Bytes are
// engine-independent — all engines must agree on them exactly, and the
// equivalence suite asserts it.  The trace slices are measurements of
// the run itself and are only populated when Options.Trace is set.
type Stats struct {
	Rounds   int
	Messages int64 // non-nil messages delivered
	Bytes    int64 // total WireSize of delivered messages implementing Sizer

	RoundNanos  []int64  // per-round wall time (Options.Trace only)
	RoundAllocs []uint64 // per-round heap allocations (Options.Trace only)
	// Per-phase split of RoundNanos: the send phase (node stepping plus
	// message emission) and the receive phase (delivery plus state
	// update).  Together they bound RoundNanos from below; the gap is
	// barrier overhead.  Options.Trace only.
	RoundSendNanos []int64
	RoundRecvNanos []int64
}

// GraphEnvs builds per-node environments for a plain graph.
func GraphEnvs(g *graph.G, p Params) []Env {
	envs := make([]Env, g.N())
	for v := range envs {
		envs[v] = Env{Degree: g.Deg(v), Weight: g.Weight(v), Kind: KindPlain, Params: p}
	}
	return envs
}

// GraphParams derives Params from a graph: Δ and W.
func GraphParams(g *graph.G) Params {
	return Params{Delta: g.MaxDegree(), W: g.MaxWeight()}
}

// BipartiteEnvs builds per-node environments for a set-cover instance
// (subset nodes carry their weight; element nodes have no input).
func BipartiteEnvs(ins *bipartite.Instance, p Params) []Env {
	envs := make([]Env, ins.N())
	for v := range envs {
		if ins.IsSubset(v) {
			envs[v] = Env{Degree: ins.Deg(v), Weight: ins.Weight(v), Kind: KindSubset, Params: p}
		} else {
			envs[v] = Env{Degree: ins.Deg(v), Kind: KindElement, Params: p}
		}
	}
	return envs
}

// BipartiteParams derives Params from an instance: f, k and W.
func BipartiteParams(ins *bipartite.Instance) Params {
	return Params{F: ins.MaxF(), K: ins.MaxK(), W: ins.MaxWeight()}
}

// Schedule maps a global 1-based round number to a segment of a phased
// algorithm.  All segment lengths are functions of the global parameters
// only, so every node computes the same schedule — a prerequisite for
// lockstep phase changes in an anonymous network.
type Schedule struct {
	segs  []int
	total int
}

// NewSchedule builds a schedule from segment lengths (each >= 0).
func NewSchedule(segs ...int) Schedule {
	total := 0
	for _, s := range segs {
		if s < 0 {
			panic("sim: negative schedule segment")
		}
		total += s
	}
	return Schedule{segs: segs, total: total}
}

// Total returns the number of rounds in the schedule.
func (s Schedule) Total() int { return s.total }

// Locate returns the segment index and the 1-based round within that
// segment for global round r in [1, Total()].
func (s Schedule) Locate(r int) (seg, local int) {
	if r < 1 || r > s.total {
		panic(fmt.Sprintf("sim: round %d outside schedule of %d rounds", r, s.total))
	}
	for i, n := range s.segs {
		if r <= n {
			return i, r
		}
		r -= n
	}
	panic("unreachable")
}
