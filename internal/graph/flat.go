package graph

import (
	"errors"
	"fmt"
	"math"
)

// PortSource is the minimal port structure a CSR view can be built from.
// *G, *bipartite.Instance and the sim Topology interface all satisfy it.
type PortSource interface {
	N() int
	Deg(v int) int
	Ports(v int) []Half
}

// FlatTopology is a compressed-sparse-row (CSR) view of a port
// structure: every half-edge of the network in one contiguous slice,
// with node v's ports at halves[off[v]:off[v+1]].  It is the input the
// shard package partitions into the simulator's per-shard inboxes and
// route tables, and the view the distributed coordinator plans from.
type FlatTopology struct {
	off    []int32
	halves []Half
}

// Flatten builds the CSR view of src.  Offsets are 32-bit for
// compactness; a network whose half-edge count would overflow them
// (2^31 or more) is rejected with ErrTooLarge before any per-half-edge
// allocation happens — such an instance must be run through per-shard
// local indexing (internal/shard plus the distributed transport), where
// each shard's own CSR stays under the ceiling.
func Flatten(src PortSource) (*FlatTopology, error) {
	n := src.N()
	off := make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		off[v] = int32(total)
		total += src.Deg(v)
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("%w: %d half-edges at node %d of %d exceed the int32 CSR offset ceiling (%d)",
				ErrTooLarge, total, v, n, math.MaxInt32)
		}
	}
	off[n] = int32(total)
	halves := make([]Half, total)
	for v := 0; v < n; v++ {
		copy(halves[off[v]:off[v+1]], src.Ports(v))
	}
	return &FlatTopology{off: off, halves: halves}, nil
}

// ErrTooLarge reports a port structure too large for a single flat CSR
// view: its half-edge count does not fit int32 offsets.
var ErrTooLarge = errors.New("graph: topology exceeds the int32 CSR ceiling")

// MustFlatten is Flatten for sources statically known to fit the CSR
// ceiling (graphs already held in memory); it panics on ErrTooLarge.
func MustFlatten(src PortSource) *FlatTopology {
	ft, err := Flatten(src)
	if err != nil {
		panic(err)
	}
	return ft
}

// N returns the number of nodes.
func (f *FlatTopology) N() int { return len(f.off) - 1 }

// Deg returns the degree of node v.
func (f *FlatTopology) Deg(v int) int { return int(f.off[v+1] - f.off[v]) }

// Ports returns the half-edges of v in port order as a CSR subslice;
// callers must not modify it.
func (f *FlatTopology) Ports(v int) []Half { return f.halves[f.off[v]:f.off[v+1]] }

// Off returns the CSR offset of node v's first half-edge; Off(N()) is
// the total half-edge count, so slot ranges are Off(v):Off(v+1).
func (f *FlatTopology) Off(v int) int { return int(f.off[v]) }

// HalfEdges returns the total number of half-edges (2M for a simple
// graph, M incidences counted from both sides for a bipartite instance).
func (f *FlatTopology) HalfEdges() int { return len(f.halves) }

// MaxDeg returns the largest node degree.  It is recomputed on each
// call (one O(n) offset scan); engines call it once per run to size
// their per-worker gather and lane scratch buffers.
func (f *FlatTopology) MaxDeg() int {
	max := 0
	for v := 0; v < f.N(); v++ {
		if d := f.Deg(v); d > max {
			max = d
		}
	}
	return max
}

// Halves returns the raw CSR half-edge slice, node by node in port
// order, with node v's ports at Halves()[Off(v):Off(v+1)].  It exists
// for partition-aware consumers (the shard subsystem's boundary sweeps
// and route-table construction) that scan every half-edge in one flat
// pass without materializing a slice header per node.  Callers must not
// modify it.
func (f *FlatTopology) Halves() []Half { return f.halves }

// Validate cross-checks the CSR view against its source: same node
// count, same degrees, same ports, monotone offsets.
func (f *FlatTopology) Validate(src PortSource) error {
	if f.N() != src.N() {
		return fmt.Errorf("flat: node count %d != %d", f.N(), src.N())
	}
	for v := 0; v < f.N(); v++ {
		if f.off[v] > f.off[v+1] {
			return fmt.Errorf("flat: offsets not monotone at node %d", v)
		}
		if f.Deg(v) != src.Deg(v) {
			return fmt.Errorf("flat: node %d degree %d != %d", v, f.Deg(v), src.Deg(v))
		}
		want := src.Ports(v)
		for p, h := range f.Ports(v) {
			if h != want[p] {
				return fmt.Errorf("flat: node %d port %d is %+v, want %+v", v, p, h, want[p])
			}
		}
	}
	return nil
}

// Flat returns the CSR view of g.
func (g *G) Flat() *FlatTopology { return MustFlatten(g) }
