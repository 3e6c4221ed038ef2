package dist_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"anoncover/internal/core/edgepack"
	"anoncover/internal/dist"
	"anoncover/internal/graph"
	"anoncover/internal/sim"
)

// TestFleetWireOverflowNoStall: when one shard's wire lane overflows,
// its peer is still waiting for that round's frames.  The coordinator
// must abort the peer on the first error verdict rather than wait for
// it to time out, so the boxed rerun follows at once.  The 24×24 grid
// with these weights overflows on one worker only, and the workers
// keep the default frame timeout (30 s).
func TestFleetWireOverflowNoStall(t *testing.T) {
	g := graph.Grid(24, 24)
	graph.RandomWeights(g, 1000, 5)
	_, addrs := startWorkers(t, 2)
	c := dist.NewCoordinator(addrs)
	defer c.Close()
	sess, err := c.CompileVC(g)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	defer sess.Close()

	// The premise: the wire run really overflows.
	t0 := time.Now()
	if _, err := sess.Run(context.Background(), dist.RunOptions{}); !errors.Is(err, sim.ErrWireOverflow) {
		t.Fatalf("wire run: err=%v, want ErrWireOverflow; the stall is untested", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("overflowing run took %v to fail", d)
	}

	t0 = time.Now()
	got, err := sess.VertexCover(context.Background(), dist.RunOptions{})
	if err != nil {
		t.Fatalf("vertex cover: %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("overflow and boxed rerun took %v", d)
	}
	ref := edgepack.MustRun(g, edgepack.Options{Engine: sim.Sequential})
	for v := range ref.Cover {
		if got.Cover[v] != ref.Cover[v] {
			t.Fatalf("cover diverges at %d", v)
		}
	}
	for i := range ref.Y {
		if !got.Y[i].Equal(ref.Y[i]) {
			t.Fatalf("y diverges at %d", i)
		}
	}
	if got.Stats.Rounds != ref.Stats.Rounds || got.Stats.Messages != ref.Stats.Messages || got.Stats.Bytes != ref.Stats.Bytes {
		t.Fatalf("stats %+v != %+v", got.Stats, ref.Stats)
	}
}
