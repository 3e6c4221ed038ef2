package fracpack

import (
	"math/rand"
	"sync"
	"testing"

	"anoncover/internal/bipartite"
	"anoncover/internal/sim"
)

// scheduleParams is the grid of global bounds the schedule tests cover:
// f ∈ 1..4, k ∈ 1..7 and W from 1 to 2⁴⁰.
func scheduleParams() []sim.Params {
	var ps []sim.Params
	for f := 1; f <= 4; f++ {
		for k := 1; k <= 7; k++ {
			for _, w := range []int64{1, 9, 1000, 1 << 40} {
				ps = append(ps, sim.Params{F: f, K: k, W: w})
			}
		}
	}
	return ps
}

// replay looks every round of order up through one cursor and holds it
// to the reference decoder: the same step, and an iteration change
// reported exactly when the round's iteration differs from the
// previous lookup's.
func replay(t *testing.T, p sim.Params, lay layout, name string, order []int) {
	t.Helper()
	cur, prevIter := startCursor, 1
	for _, r := range order {
		wantIter, want := lay.locate(r)
		got, moved := lay.at(&cur, r)
		if got != want || moved != (wantIter != prevIter) || cur.iter != wantIter {
			t.Fatalf("%+v %s: round %d: cursor gives %+v moved=%v iter %d, decoder %+v iter %d (previous %d)",
				p, name, r, got, moved, cur.iter, want, wantIter, prevIter)
		}
		prevIter = wantIter
	}
}

// TestStepTableMatchesDecoder: a cursor lookup returns exactly what the
// reference decoder returns for every round of the schedule, in any
// call order a program sees — forward (Send then Recv per round), the
// iteration-sized chunks of EarlyExit, backward, and shuffled.
func TestStepTableMatchesDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range scheduleParams() {
		lay := newLayout(p)
		total := Rounds(p)
		if total != lay.iters*lay.perIter || len(lay.steps) != lay.perIter {
			t.Fatalf("%+v: %d rounds, %d iterations of %d, table of %d",
				p, total, lay.iters, lay.perIter, len(lay.steps))
		}
		forward := make([]int, 0, 2*total)
		for r := 1; r <= total; r++ {
			forward = append(forward, r, r)
		}
		replay(t, p, lay, "forward", forward)

		var chunks []int
		for off := 0; off < total; off += lay.perIter {
			for r := 1; r <= lay.perIter; r++ {
				chunks = append(chunks, r+off, r+off) // offsetProg's numbering
			}
		}
		replay(t, p, lay, "chunked", chunks)

		backward := make([]int, total)
		for i := range backward {
			backward[i] = total - i
		}
		replay(t, p, lay, "backward", backward)

		shuffled := rng.Perm(total)
		for i := range shuffled {
			shuffled[i]++
		}
		replay(t, p, lay, "shuffled", shuffled)
	}
}

// TestDegenerateLayoutHasNoTable: K = 0 or F = 0 schedules no rounds,
// so no table is built, and programs for such parameters still
// construct and report their (empty) state.
func TestDegenerateLayoutHasNoTable(t *testing.T) {
	for _, p := range []sim.Params{{F: 2, K: 0, W: 5}, {F: 0, K: 3, W: 5}, {}} {
		if r := Rounds(p); r != 0 {
			t.Fatalf("%+v: %d rounds, want 0", p, r)
		}
		if lay := newLayout(p); lay.iters != 0 || lay.steps != nil {
			t.Fatalf("%+v: %d iterations, table of %d", p, lay.iters, len(lay.steps))
		}
		sub := NewSubset(sim.Env{Degree: 0, Weight: 1, Kind: sim.KindSubset, Params: p})
		elem := NewElement(sim.Env{Degree: 0, Kind: sim.KindElement, Params: p})
		if sub.lay.steps != nil || elem.lay.steps != nil {
			t.Fatalf("%+v: a program built a table", p)
		}
		sub.Output()
		elem.Output()
	}
}

// resetStepTables empties the memo so a test sees only its own shapes.
func resetStepTables() {
	stepTables.Lock()
	stepTables.m = nil
	stepTables.Unlock()
}

// TestStepTableMemoKeyedByShape: the memo holds one table per shape
// (colour count, weak-reduction length), not per W, so W churn cannot
// grow it, and layouts of one shape share one table.
func TestStepTableMemoKeyedByShape(t *testing.T) {
	resetStepTables()
	shapes := map[tableKey][]step{}
	for w := int64(1); w <= 1<<40; w = w*3 + 1 {
		lay := newLayout(sim.Params{F: 3, K: 6, W: w})
		key := tableKey{lay.colours, lay.weakReps}
		if prev, ok := shapes[key]; ok && &prev[0] != &lay.steps[0] {
			t.Fatalf("W=%d: shape %+v got a second table", w, key)
		}
		shapes[key] = lay.steps
	}
	stepTables.Lock()
	n := len(stepTables.m)
	stepTables.Unlock()
	if n != len(shapes) {
		t.Fatalf("memo holds %d tables for %d shapes", n, len(shapes))
	}
}

// TestStepTablesConcurrent: runs of several shapes building and sharing
// tables from many goroutines at once match their sequential
// references.  CI runs it under -race.
func TestStepTablesConcurrent(t *testing.T) {
	ins := bipartite.Random(12, 30, 3, 6, 9, 17)
	var opts []Options
	for _, k := range []int{6, 7, 8} {
		for _, w := range []int64{16, 1 << 20} {
			opts = append(opts, Options{F: 3, K: k, W: w})
		}
	}
	refs := make([]*Result, len(opts))
	for i, o := range opts {
		refs[i] = MustRun(ins, o)
	}
	resetStepTables()
	var wg sync.WaitGroup
	for g := 0; g < 2*len(opts); g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := MustRun(ins, opts[i])
			for s := range refs[i].Cover {
				if got.Cover[s] != refs[i].Cover[s] {
					t.Errorf("%+v: cover diverges at subset %d", opts[i], s)
					return
				}
			}
			for u := range refs[i].Y {
				if !got.Y[u].Equal(refs[i].Y[u]) {
					t.Errorf("%+v: element %d packing diverges", opts[i], u)
					return
				}
			}
		}(g % len(opts))
	}
	wg.Wait()
}
