package shard

import (
	"fmt"
	"sort"

	"anoncover/internal/graph"
)

// Topology is the partition-aware execution view of a flat CSR
// topology: per shard, a local CSR over its owned nodes plus a
// precomputed route table that turns every outgoing half-edge into
// either a local inbox slot or a halo-buffer slot.  The structure is
// immutable after Build — engines allocate the message buffers it
// describes per run, so one Topology can be shared across concurrent
// runs exactly like a *graph.FlatTopology.
//
// Routing contract, per shard s and its j-th owned half-edge (CSR
// order over Shards[s].Nodes):
//
//   - Route[j] >= 0: the message is for a node s owns; deliver it to
//     slot Route[j] of s's own inbox (length Shards[s].InboxLen()).
//   - Route[j] < 0: the message crosses the cut; write it to slot
//     ^Route[j] of s's halo-out buffer (length Shards[s].HaloOut).
//
// After all shards finish sending, shard t drains its In descriptors:
// for each entry, message i of the source shard's halo-out segment
// [Lo, Lo+len(Slots)) lands in slot Slots[i] of t's inbox.  Every halo
// slot has exactly one writer (the half-edge's origin shard) and one
// reader (the destination shard), so the exchange needs no locks —
// only the engine's phase barrier between the send and receive
// phases.  Engines keep two generations of halo-out buffers and
// alternate them by round parity, so a shard's round-r+1 sends can
// never overwrite a halo slot a slow neighbour is still draining for
// round r, even if a future engine relaxes the global barrier to
// per-pair synchronization.
type Topology struct {
	ft     *graph.FlatTopology
	part   *Partition
	Shards []Shard
}

// Shard is one shard's immutable routing state.
type Shard struct {
	// Nodes are the owned global node ids, in partition order.
	Nodes []int32
	// Off is the local CSR: the inbox slots of Nodes[i] are
	// Off[i]:Off[i+1], and slot Off[i]+p holds the message arriving at
	// Nodes[i] through port p.  len(Off) == len(Nodes)+1.
	Off []int32
	// Route maps the shard's own outgoing half-edges (same CSR
	// indexing as Off) to destination slots; see the Topology contract.
	Route []int32
	// ValBase places the shard's nodes in a run's flat per-node
	// tables: node Nodes[i] sits at ValBase+i.  Shards tile [0, N) in
	// shard order, so each shard's block is contiguous and only block
	// edges share a cache line.
	ValBase int32
	// HaloOut is the size of the shard's halo-out buffer.
	HaloOut int
	// Out describes the halo-out buffer's layout as outgoing segments,
	// ordered by destination shard: the cut half-edges bound for shard
	// Out[i].Dst occupy slots [Out[i].Off, Out[i].Off+Out[i].Len).  The
	// in-memory engines never need it (receivers drain through In), but
	// a transport that ships halo buffers between processes flushes one
	// frame per segment, and this table is the sender's view of the
	// same layout In describes on the receiving side.
	Out []Seg
	// In describes the shard's incoming halo segments, ordered by
	// source shard.
	In []HaloIn
}

// Seg is one outgoing halo segment: a contiguous destination-sorted
// block of the owning shard's halo-out buffer, bound for shard Dst.
// The receiving side's matching HaloIn has Src = the owner, Lo = Off
// and len(Slots) = Len.
type Seg struct {
	Dst, Off, Len int32
}

// InboxLen returns the size of the shard's local inbox (the shard's
// half-edge count).
func (s *Shard) InboxLen() int { return int(s.Off[len(s.Nodes)]) }

// HaloIn is one incoming halo segment: messages [Lo, Lo+len(Slots)) of
// shard Src's halo-out buffer, delivered in order to the owning
// shard's inbox at Slots.
type HaloIn struct {
	Src   int32
	Lo    int32
	Slots []int32
}

// segment is one (source shard, destination shard) slice of a halo-out
// buffer during construction: its offset in the source's flat buffer
// and its cut half-edges, collected in source CSR order and then
// sorted by destination slot so the receiving drain writes its inbox
// in ascending streaming order.
type segment struct {
	off     int32
	entries []cutEntry
}

// cutEntry is one cut half-edge during halo layout: the destination
// inbox slot and the source-side route index to back-patch once the
// segment order is fixed.
type cutEntry struct {
	slot, routeJ int32
}

// Build assembles the execution view of ft under partition p.
func Build(ft *graph.FlatTopology, p *Partition) *Topology {
	k := p.K()
	n := ft.N()
	st := &Topology{ft: ft, part: p, Shards: make([]Shard, k)}

	// Local CSR per shard, plus the global node -> local index map the
	// route construction needs to find destination slots.
	localIdx := make([]int32, n)
	var valBase int32
	for s := 0; s < k; s++ {
		nodes := p.Nodes[s]
		off := make([]int32, len(nodes)+1)
		for i, v := range nodes {
			localIdx[v] = int32(i)
			off[i+1] = off[i] + int32(ft.Deg(int(v)))
		}
		st.Shards[s] = Shard{
			Nodes:   nodes,
			Off:     off,
			Route:   make([]int32, off[len(nodes)]),
			ValBase: valBase,
		}
		valBase += int32(len(nodes))
	}

	// Halo segment layout: shard s's halo-out buffer is its cut
	// half-edges grouped by destination shard, destinations in
	// ascending order, and within a destination in s's own CSR order —
	// the same order the receiving side's Slots are laid out in.
	halves := ft.Halves()
	segs := make([]map[int32]*segment, k)
	dests := make([][]int32, k)
	for s := 0; s < k; s++ {
		counts := make(map[int32]int32)
		for _, v := range p.Nodes[s] {
			for j := ft.Off(int(v)); j < ft.Off(int(v)+1); j++ {
				if t := p.ShardOf[halves[j].To]; t != int32(s) {
					counts[t]++
				}
			}
		}
		dests[s] = make([]int32, 0, len(counts))
		for t := range counts {
			dests[s] = append(dests[s], t)
		}
		sort.Slice(dests[s], func(a, b int) bool { return dests[s][a] < dests[s][b] })
		segs[s] = make(map[int32]*segment, len(dests[s]))
		var off int32
		for _, t := range dests[s] {
			segs[s][t] = &segment{off: off, entries: make([]cutEntry, 0, counts[t])}
			st.Shards[s].Out = append(st.Shards[s].Out, Seg{Dst: t, Off: off, Len: counts[t]})
			off += counts[t]
		}
		st.Shards[s].HaloOut = int(off)
	}

	// Fill the route tables; cut half-edges are collected per segment
	// and back-patched below once the segment order is settled.
	for s := 0; s < k; s++ {
		sh := &st.Shards[s]
		j := 0
		for _, v := range sh.Nodes {
			for g := ft.Off(int(v)); g < ft.Off(int(v)+1); g++ {
				h := halves[g]
				t := p.ShardOf[h.To]
				dst := st.Shards[t].Off[localIdx[h.To]] + int32(h.RevPort)
				if t == int32(s) {
					sh.Route[j] = dst
				} else {
					sg := segs[s][t]
					sg.entries = append(sg.entries, cutEntry{slot: dst, routeJ: int32(j)})
				}
				j++
			}
		}
	}

	// Order every segment by destination slot (so the receiving drain
	// streams its inbox writes in ascending order), back-patch the
	// route table with the final halo positions, and attach the
	// incoming descriptors, ordered by source shard.
	for s := 0; s < k; s++ {
		sh := &st.Shards[s]
		for _, t := range dests[s] {
			sg := segs[s][t]
			sort.Slice(sg.entries, func(a, b int) bool {
				return sg.entries[a].slot < sg.entries[b].slot
			})
			in := HaloIn{Src: int32(s), Lo: sg.off, Slots: make([]int32, len(sg.entries))}
			for pos, e := range sg.entries {
				sh.Route[e.routeJ] = ^(sg.off + int32(pos))
				in.Slots[pos] = e.slot
			}
			st.Shards[t].In = append(st.Shards[t].In, in)
		}
	}
	return st
}

// BuildK partitions ft into k shards and builds the execution view in
// one call.
func BuildK(ft *graph.FlatTopology, k int) *Topology {
	return Build(ft, New(ft, k))
}

// Flat returns top's CSR view: top itself when it is one, the view a
// sharded topology was built over, and a fresh flattening otherwise.
func Flat(top graph.PortSource) (*graph.FlatTopology, error) {
	switch t := top.(type) {
	case *graph.FlatTopology:
		return t, nil
	case *Topology:
		return t.ft, nil
	}
	return graph.Flatten(top)
}

// K returns the number of shards.
func (st *Topology) K() int { return len(st.Shards) }

// Flat returns the underlying CSR topology.
func (st *Topology) Flat() *graph.FlatTopology { return st.ft }

// Part returns the partition the view was built from.
func (st *Topology) Part() *Partition { return st.part }

// N, Deg and Ports delegate to the underlying CSR view, so a
// *Topology satisfies the simulator's Topology interface and can be
// passed directly to any engine: the sharded engine reuses the
// partition-aware view, the others see the plain flat topology.
func (st *Topology) N() int                   { return st.ft.N() }
func (st *Topology) Deg(v int) int            { return st.ft.Deg(v) }
func (st *Topology) Ports(v int) []graph.Half { return st.ft.Ports(v) }

// Validate cross-checks the routing structure against the underlying
// CSR view by routing one synthetic token per half-edge: the token for
// global half-edge (v, p) must surface, after local delivery plus a
// halo drain, in the local inbox of v's neighbour at exactly the slot
// its global CSR slot Off(To)+RevPort maps to.  It returns nil on
// success.
func (st *Topology) Validate() error {
	if err := st.part.Validate(st.ft); err != nil {
		return err
	}
	ft := st.ft
	k := st.K()
	inboxes := make([][]int64, k)
	halo := make([][]int64, k)
	for s := range st.Shards {
		sh := &st.Shards[s]
		if len(sh.Route) != sh.InboxLen() {
			return fmt.Errorf("shard %d: %d routes for %d half-edges", s, len(sh.Route), sh.InboxLen())
		}
		inboxes[s] = make([]int64, sh.InboxLen())
		for i := range inboxes[s] {
			inboxes[s][i] = -1
		}
		halo[s] = make([]int64, sh.HaloOut)
	}
	// Send phase: token = 1 + global CSR index of the half-edge.
	for s := range st.Shards {
		sh := &st.Shards[s]
		j := 0
		for _, v := range sh.Nodes {
			for g := ft.Off(int(v)); g < ft.Off(int(v)+1); g++ {
				token := int64(g) + 1
				if rt := sh.Route[j]; rt >= 0 {
					inboxes[s][rt] = token
				} else {
					halo[s][^rt] = token
				}
				j++
			}
		}
	}
	// The outgoing segment table must tile each halo-out buffer exactly
	// and mirror the receiving side's In descriptors.
	for s := range st.Shards {
		sh := &st.Shards[s]
		var off int32
		for _, sg := range sh.Out {
			if sg.Off != off {
				return fmt.Errorf("shard %d: out segment for %d starts at %d, want %d", s, sg.Dst, sg.Off, off)
			}
			found := false
			for _, in := range st.Shards[sg.Dst].In {
				if in.Src == int32(s) {
					found = true
					if in.Lo != sg.Off || int32(len(in.Slots)) != sg.Len {
						return fmt.Errorf("shard %d: out segment for %d is [%d,+%d), receiver sees [%d,+%d)",
							s, sg.Dst, sg.Off, sg.Len, in.Lo, len(in.Slots))
					}
				}
			}
			if !found {
				return fmt.Errorf("shard %d: out segment for %d has no matching In descriptor", s, sg.Dst)
			}
			off += sg.Len
		}
		if int(off) != sh.HaloOut {
			return fmt.Errorf("shard %d: out segments cover %d halo slots, want %d", s, off, sh.HaloOut)
		}
	}
	// Halo drain.
	for t := range st.Shards {
		for _, in := range st.Shards[t].In {
			for i, slot := range in.Slots {
				inboxes[t][slot] = halo[in.Src][int(in.Lo)+i]
			}
		}
	}
	// Every local inbox slot must now hold the token of the global
	// half-edge that feeds it.
	halves := ft.Halves()
	for t := range st.Shards {
		sh := &st.Shards[t]
		for i, v := range sh.Nodes {
			for p := 0; p < int(sh.Off[i+1]-sh.Off[i]); p++ {
				h := halves[ft.Off(int(v))+p]
				// The half-edge feeding (v, p) is port RevPort of To.
				want := int64(ft.Off(h.To)+h.RevPort) + 1
				got := inboxes[t][int(sh.Off[i])+p]
				if got != want {
					return fmt.Errorf("shard %d: node %d port %d received token %d, want %d",
						t, v, p, got, want)
				}
			}
		}
	}
	// The per-node tables: shards must tile [0, N) in shard order.
	var base int32
	for s := range st.Shards {
		sh := &st.Shards[s]
		if sh.ValBase != base {
			return fmt.Errorf("shard %d: nodes start at %d, want %d", s, sh.ValBase, base)
		}
		base += int32(len(sh.Nodes))
	}
	return nil
}
