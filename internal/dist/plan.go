package dist

import (
	"fmt"
	"slices"

	"anoncover/internal/obs"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// peerSet returns the ids of every shard sh exchanges frames with, in
// ascending order.
func peerSet(sh *shard.Shard) []int32 {
	seen := map[int32]bool{}
	var out []int32
	add := func(id int32) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, sg := range sh.Out {
		add(sg.Dst)
	}
	for _, in := range sh.In {
		add(in.Src)
	}
	slices.Sort(out)
	return out
}

// validate rejects a plan whose shard is inconsistent in any field the
// shard step or the transport indexes with — a remote worker runs it on
// everything that arrives by gob, so a corrupted or adversarial plan
// fails here instead of as an index panic mid-run.
func (p *WorkerPlan) validate() error {
	sh := &p.Shard
	if p.Self < 0 || int(p.Self) >= p.Workers || len(p.Peers) != p.Workers {
		return fmt.Errorf("dist: plan shard %d of %d workers with %d peer addresses", p.Self, p.Workers, len(p.Peers))
	}
	if len(sh.Off) != len(sh.Nodes)+1 || sh.Off[0] != 0 {
		return fmt.Errorf("dist: plan CSR malformed: %d nodes, %d offsets", len(sh.Nodes), len(sh.Off))
	}
	for i := 1; i < len(sh.Off); i++ {
		if sh.Off[i] < sh.Off[i-1] {
			return fmt.Errorf("dist: plan CSR offsets decrease at %d", i)
		}
	}
	inbox := sh.InboxLen()
	if len(sh.Route) != inbox {
		return fmt.Errorf("dist: plan route table %d entries for %d half-edges", len(sh.Route), inbox)
	}
	for j, rt := range sh.Route {
		if rt >= 0 && int(rt) >= inbox {
			return fmt.Errorf("dist: route %d -> local slot %d beyond inbox %d", j, rt, inbox)
		}
		if rt < 0 && int(^rt) >= sh.HaloOut {
			return fmt.Errorf("dist: route %d -> halo slot %d beyond halo-out %d", j, ^rt, sh.HaloOut)
		}
	}
	covered := 0
	for i, sg := range sh.Out {
		if sg.Dst < 0 || int(sg.Dst) >= p.Workers || sg.Dst == p.Self {
			return fmt.Errorf("dist: out segment %d bound for shard %d", i, sg.Dst)
		}
		if int(sg.Off) != covered || sg.Len < 0 {
			return fmt.Errorf("dist: out segment %d does not tile the halo-out buffer", i)
		}
		covered += int(sg.Len)
	}
	if covered != sh.HaloOut {
		return fmt.Errorf("dist: out segments cover %d of %d halo-out slots", covered, sh.HaloOut)
	}
	for i, in := range sh.In {
		if in.Src < 0 || int(in.Src) >= p.Workers || in.Src == p.Self {
			return fmt.Errorf("dist: in segment %d sourced from shard %d", i, in.Src)
		}
		for _, slot := range in.Slots {
			if slot < 0 || int(slot) >= inbox {
				return fmt.Errorf("dist: in segment %d delivers to slot %d beyond inbox %d", i, slot, inbox)
			}
		}
	}
	return nil
}

// WorkerPlan is the gob setup message installing one session on a
// remote worker: the shard it owns, where its peers listen, and
// everything needed to rebuild the node programs locally — algorithm
// name, global parameters, per-node weights and kinds.  Run-variant
// knobs (rounds, scramble seed, wire/boxed, budget) travel per run in
// StartSpec instead, so an overflow rerun or a weight update does not
// re-plan.
type WorkerPlan struct {
	Session uint64
	// Gen is the session's install generation.  The coordinator bumps
	// it when it re-ships cached plans to a rejoining worker; workers
	// ack a plan they already hold (same session, same gen), replace
	// state for a newer gen, and reject a stale one, which makes
	// re-installs idempotent under retries and restarts.
	Gen     uint64
	Algo    string
	Workers int      // effective shard count
	Self    int32    // the shard's id
	Peers   []string // listen address per shard id; Peers[Self] unused

	Params  sim.Params
	Weights []int64 // per local node, Nodes order
	Kinds   []uint8 // per local node, sim.NodeKind

	// Shard is the worker's shard of the coordinator's partition, as
	// shard.Build laid it out.
	Shard shard.Shard
}

// StartSpec is the per-run fStart payload.
type StartSpec struct {
	Run          uint32
	Rounds       int
	NoWire       bool
	ScrambleSeed int64
	RoundBudget  int
	// DeadlineMillis bounds the run from the worker's side (wall
	// clock, from receipt); 0 means the coordinator's abort frame is
	// the only cancellation path.
	DeadlineMillis int64
	// TraceOff disables per-round phase tracing for this run; the zero
	// value traces at round granularity.  TraceEvery > 1 samples every
	// n-th round instead (the fleet-scale burst knob).
	TraceOff   bool
	TraceEvery int
	// Tag is the serving layer's run ID, threaded into worker logs so
	// a fleet-wide grep reconstructs one request.
	Tag string
}

// outputsMsg is the fOutputs payload: the worker's node outputs in
// plan order plus its shard's stats contribution.  Trace carries the
// shard's phase timeline when tracing was on (HasTrace distinguishes
// "off" from an empty trace); a run that fails before fOutputs ships
// its partial trace as a separate fTrace frame instead.
type outputsMsg struct {
	Rounds   int
	Messages int64
	Bytes    int64
	Outs     []any
	Trace    obs.ShardSpans
	HasTrace bool
}

// weightsMsg is the fWeights payload: new weights for the worker's
// nodes (plan order) and the updated global parameters, which shift
// when the maximum weight does.
type weightsMsg struct {
	Weights []int64
	Params  sim.Params
}
