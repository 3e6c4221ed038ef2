package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"time"
)

// setupReps is how many times each workload sets itself up; setup_s is
// the median.  The last set-up is the one the timed phase runs on.  A
// set-up lasts a fraction of a second, about as long as the machine's
// speed phases, so single set-ups vary more than batches of ops do;
// README.md gives the spread of the median of 15.
const setupReps = 15

// bench collects one run's measurements.  Ops are timed one at a time
// (one closed-loop client), in batches between two calibration-kernel
// samples; checks run after the round and are not timed.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	cal      calibrator

	setups    []float64 // calibrated seconds per set-up
	rawSetups []float64 // the same, uncalibrated

	lat, raw  []float64            // calibrated and raw ms of untraced ops
	byClass   map[string][]float64 // calibrated ms of untraced ops per request class
	tracedLat []float64            // calibrated ms of traced ops (trace mode)
	attempted int
	measured  int // ops timed by op, the denominator of the per-op figures
	failed    int
	wrong     int // ops whose output failed a check

	execRuns   int64 // ops that executed a run (not memo hits)
	rounds     int64
	msgBytes   int64
	ratioSum   float64
	ratioN     int
	allocBytes uint64
	peakGoal   uint64
	gcCycles   uint64
	gcCPU      float64

	pending []timedOp // ops of the current round, unchecked
	batch   int       // first op of pending not yet calibrated
	lastK   float64   // the latest kernel sample
	led     *ledger   // nil unless trace
	mem     []metrics.Sample
}

func newBench(workload string, seed int64, seconds int, trace bool) *bench {
	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace, cal: calibrator{k: newKernel()}, byClass: map[string][]float64{},
		mem: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/goal:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
		},
	}
	if trace {
		b.led = newLedger()
	}
	return b
}

// spans collects raw ms per layer for calls made inside one measured
// interval; the interval's calibration factor is applied afterwards.
type spans map[string]float64

// time runs fn and adds its wall time to layer name.  On a nil map
// (an untraced op) it only runs fn.
func (s spans) time(name string, fn func() error) error {
	if s == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	s[name] += msSince(t0)
	return err
}

// setup times one set-up between kernel samples and records it in
// calibrated seconds.
func (b *bench) setup(fn func(sp spans) error) error {
	sp := spans{}
	raw, factor, err := b.cal.measure(func() error { return fn(sp) })
	if err != nil {
		return err
	}
	b.setups = append(b.setups, raw*factor/1000)
	b.rawSetups = append(b.rawSetups, raw/1000)
	if b.led != nil {
		b.led.addSetup(raw*factor, sp, factor)
	}
	return nil
}

// step is one standalone layer call.
type step struct {
	name string
	fn   func() error
}

// standaloneReps is how often a standalone layer call is repeated; the
// ledger keeps the median.
const standaloneReps = 5

// standalone times layer calls that a set-up makes implicitly, each
// repeated between kernel samples, into the ledger (trace mode only).
func (b *bench) standalone(steps []step) error {
	for _, s := range steps {
		var t []float64
		for i := 0; i < standaloneReps; i++ {
			raw, factor, err := b.cal.measure(s.fn)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			t = append(t, raw*factor)
		}
		b.led.gauge[s.name] = median(t)
	}
	return nil
}

// opRec is one timed op: its calibration factor and calibrated ms.
type opRec struct {
	factor, cal float64
}

// timedOp is an op that ran and awaits its check.
type timedOp struct {
	traced bool
	sp     spans
	rec    opRec
	raw    float64
	check  func() error
	after  func(opRec)
}

// op times run as one operation.  Its calibration factor is set when
// its batch closes (quiesce), and its output is checked when the round
// ends, so the checker's garbage never lands inside a timed interval.
// A run error, or later a check failure, counts the op as failed;
// otherwise its latency is booked and after (if not nil) runs.  Traced
// ops hand run a spans map; their layer times enter the ledger
// calibrated by the op's factor.
func (b *bench) op(traced bool, run func(sp spans) error, check func() error, after func(opRec)) {
	b.attempted++
	b.measured++
	var sp spans
	if traced {
		sp = spans{}
	}
	metrics.Read(b.mem)
	alloc0, cyc0, cpu0 := b.mem[0].Value.Uint64(), b.mem[2].Value.Uint64(), b.mem[3].Value.Float64()
	t0 := time.Now()
	err := run(sp)
	raw := msSince(t0)
	metrics.Read(b.mem)
	b.allocBytes += b.mem[0].Value.Uint64() - alloc0
	b.peakGoal = max(b.peakGoal, b.mem[1].Value.Uint64())
	b.gcCycles += b.mem[2].Value.Uint64() - cyc0
	b.gcCPU += b.mem[3].Value.Float64() - cpu0
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "%s: op %d failed: %v\n", b.workload, b.attempted, err)
		return
	}
	b.pending = append(b.pending, timedOp{traced: traced, sp: sp, raw: raw, check: check, after: after})
}

// quiesce closes a batch of ops: it takes a kernel sample on the
// quiesced program and calibrates every op timed since the previous
// sample by the two samples around the batch.
func (b *bench) quiesce() {
	k := b.cal.sample()
	f := factor(b.lastK, k)
	for i := b.batch; i < len(b.pending); i++ {
		p := &b.pending[i]
		p.rec = opRec{factor: f, cal: p.raw * f}
	}
	b.lastK, b.batch = k, len(b.pending)
}

// settle checks the round's ops and books the ones that pass.
func (b *bench) settle() {
	for _, p := range b.pending {
		if err := p.check(); err != nil {
			b.failed++
			b.wrong++
			fmt.Fprintf(os.Stderr, "%s: wrong output: %v\n", b.workload, err)
			continue
		}
		if p.traced {
			b.tracedLat = append(b.tracedLat, p.rec.cal)
			b.led.addOp(p.rec.cal, p.sp, p.rec.factor)
		} else {
			b.lat = append(b.lat, p.rec.cal)
			b.raw = append(b.raw, p.raw)
		}
		if p.after != nil {
			p.after(p.rec)
		}
	}
	b.pending, b.batch = b.pending[:0], 0
}

// executed records an op that ran the algorithm.
func (b *bench) executed(rounds int, bytes int64) {
	b.execRuns++
	b.rounds += int64(rounds)
	b.msgBytes += bytes
}

// ratio records an op's cover weight against the benchmark's own lower
// bound on OPT.
func (b *bench) ratio(wc, lower int64) {
	b.ratioSum += float64(wc) / float64(lower)
	b.ratioN++
}

// phase runs whole rounds of the workload's op sequence until the run
// length is used up.  A round starts and ends quiesced (a workload may
// quiesce between batches inside it too); its ops run back to back and
// are checked after it.  In trace mode rounds alternate untraced and
// traced, so the same run yields the tracing overhead.
func (b *bench) phase(round func(traced bool) error) error {
	deadline := time.Now().Add(b.seconds)
	for i := 0; ; i++ {
		b.lastK = b.cal.sample()
		traced := b.trace && i%2 == 1
		if err := round(traced); err != nil {
			return err
		}
		if b.batch < len(b.pending) {
			b.quiesce()
		}
		b.settle()
		if time.Now().After(deadline) && (!b.trace || i >= 1) {
			return nil
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of the untraced ops.
func (b *bench) endToEnd() map[string]metric {
	ops := float64(len(b.lat))
	sum := 0.0
	for _, x := range b.lat {
		sum += x
	}
	m := map[string]metric{
		"setup_s":            {median(b.setups), "s"},
		"latency_p50_ms":     {median(b.lat), "ms"},
		"latency_tail_ms":    {quantile(b.lat, tailQ), "ms"},
		"throughput_ops_s":   {ops / (sum / 1000), "1/s"},
		"rounds_per_op":      {float64(b.rounds) / float64(b.execRuns), "count"},
		"msg_bytes_per_op":   {float64(b.msgBytes) / float64(b.execRuns), "bytes"},
		"cover_weight_ratio": {b.ratioSum / float64(b.ratioN), "ratio"},
		"alloc_mb_per_op":    {float64(b.allocBytes) / float64(b.measured) / 1e6, "MB"},
		"peak_heap_mb":       {float64(b.peakGoal) / 1e6, "MB"},
	}
	return m
}

// tailQ is the percentile latency_tail_ms reports, at a fixed level so
// that two commits stay comparable even when the faster one fits more
// ops into the run.  A run needs minOps untraced ops for it to have ten
// samples beyond it; a shorter run fails instead of reporting a lower
// percentile under the same name.
const (
	tailQ  = 0.9
	minOps = 100
)

// quantile is the nearest-rank q-quantile.
func quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := slices.Clone(x)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(x []float64) float64 { return quantile(x, 0.5) }
