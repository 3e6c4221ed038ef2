package anoncover

import (
	"context"
	"testing"
)

// batchScenarios are deliberately heterogeneous: different Δ, different
// W, different sizes, an isolated-node graph — so the union carries
// per-component parameters and schedules of different lengths, which is
// exactly the regime where naive global parameters would change the
// covers.
func batchScenarios() []*Graph {
	grid := GridGraph(3, 4)
	grid.WeighRandom(9, 3)
	star := StarGraph(7)
	star.WeighRandom(31, 5)
	path := PathGraph(9)
	pl := PowerLawBoundedGraph(40, 2, 6, 11)
	pl.WeighRandom(5, 8)
	single := NewGraph(1).Build()
	tri := CycleGraph(3)
	tri.SetWeight(1, 7)
	return []*Graph{grid, star, path, pl, single, tri}
}

// TestVertexCoverBatchMatchesSolo pins the batching contract: every
// instance of a pooled batch run gets the bit-identical cover, packing,
// weight and round count its solo run produces, on every engine and on
// the boxed path, and the batch message/byte totals are exactly the
// sum of the solo runs' (components exchange nothing, so the union's
// traffic is the disjoint sum).
func TestVertexCoverBatchMatchesSolo(t *testing.T) {
	gs := batchScenarios()
	solo := make([]*VertexCoverResult, len(gs))
	var sumMsgs, sumBytes int64
	for i, g := range gs {
		solo[i] = VertexCover(g)
		sumMsgs += solo[i].Messages
		sumBytes += solo[i].Bytes
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"sequential", []Option{WithEngine(EngineSequential)}},
		{"sequential-boxed", []Option{WithEngine(EngineSequential), WithoutWirePath()}},
		{"parallel", []Option{WithEngine(EngineParallel), WithWorkers(3)}},
		{"sharded", []Option{WithEngine(EngineSharded), WithWorkers(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := VertexCoverBatch(context.Background(), gs, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(gs) {
				t.Fatalf("%d results for %d instances", len(res), len(gs))
			}
			var gotMsgs, gotBytes int64
			for i, r := range res {
				ref := solo[i]
				if r.Weight != ref.Weight || r.Rounds != ref.Rounds {
					t.Fatalf("instance %d: (weight, rounds) = (%d, %d), solo (%d, %d)",
						i, r.Weight, r.Rounds, ref.Weight, ref.Rounds)
				}
				for v := range r.Cover {
					if r.Cover[v] != ref.Cover[v] {
						t.Fatalf("instance %d node %d: batch cover %v != solo %v", i, v, r.Cover[v], ref.Cover[v])
					}
				}
				for e := range r.Packing {
					if r.Packing[e].Cmp(ref.Packing[e]) != 0 {
						t.Fatalf("instance %d edge %d: batch packing %v != solo %v", i, e, r.Packing[e], ref.Packing[e])
					}
				}
				if err := r.Verify(); err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				gotMsgs, gotBytes = r.Messages, r.Bytes
			}
			if gotMsgs != sumMsgs || gotBytes != sumBytes {
				t.Errorf("batch traffic (%d msgs, %d bytes) != solo sum (%d, %d)",
					gotMsgs, gotBytes, sumMsgs, sumBytes)
			}
		})
	}
}

// TestBatchRunnerReuse exercises the session form: consecutive batches
// of different shapes on one runner (recycled pools and programs) stay
// bit-identical to solo runs, including after Close.
func TestBatchRunnerReuse(t *testing.T) {
	b, err := NewBatchRunner(WithEngine(EngineSharded), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gs := batchScenarios()
	batches := [][]*Graph{gs, {gs[1], gs[0]}, gs[2:5], gs}
	for bi, batch := range batches {
		res, err := b.VertexCover(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		for i, r := range res {
			ref := VertexCover(batch[i])
			if r.Weight != ref.Weight {
				t.Fatalf("batch %d instance %d: weight %d != solo %d", bi, i, r.Weight, ref.Weight)
			}
			for v := range r.Cover {
				if r.Cover[v] != ref.Cover[v] {
					t.Fatalf("batch %d instance %d node %d: cover mismatch", bi, i, v)
				}
			}
		}
	}
	if res, err := b.VertexCover(context.Background(), nil); err != nil || res != nil {
		t.Fatalf("empty batch: (%v, %v), want (nil, nil)", res, err)
	}
}

// TestBatchRunnerRejectsGlobalBounds pins the guard that keeps batches
// bit-identical: declared global bounds would inflate every component's
// schedule, so they are rejected up front.
func TestBatchRunnerRejectsGlobalBounds(t *testing.T) {
	if _, err := NewBatchRunner(WithDegreeBound(16)); err == nil {
		t.Error("NewBatchRunner accepted WithDegreeBound")
	}
	if _, err := VertexCoverBatch(context.Background(), []*Graph{PathGraph(3)}, WithWeightBound(100)); err == nil {
		t.Error("VertexCoverBatch accepted WithWeightBound")
	}
}

// TestVertexCoverBatchCancel: a cancelled context abandons the batch
// with the context error.
func TestVertexCoverBatchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VertexCoverBatch(ctx, batchScenarios()); err == nil {
		t.Error("cancelled batch returned no error")
	}
}
