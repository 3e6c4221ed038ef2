package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"anoncover"
)

// The per-layer ledger of a traced run.  Every layer is timed from
// outside, by wrapping the benchmark's calls into the layer's public
// functions, by observer callbacks, or by the service's own run log and
// trace endpoints; nothing inside the program is instrumented for it.

// perLayer lists every per-layer metric with its unit.  A layer that a
// workload does not reach reads 0 on that workload.
var perLayer = []struct{ name, unit string }{
	{"graph.decode_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"graph.flatten_ms", "ms"},
	{"bipartite.decode_ms", "ms"},
	{"bipartite.fingerprint_ms", "ms"},
	{"shard.build_ms", "ms"},
	{"shard.cut_frac", "ratio"},
	{"anoncover.compile_ms", "ms"},
	{"anoncover.update_weights_ms", "ms"},
	{"anoncover.rerun_ms", "ms"},
	{"anoncover.first_round_ms", "ms"},
	{"anoncover.assemble_ms", "ms"},
	{"sim.round_p50_us", "us"},
	{"sim.round_max_us", "us"},
	{"sim.ns_per_node_round", "ns"},
	{"edgepack.phase1_ms", "ms"},
	{"edgepack.cv_ms", "ms"},
	{"edgepack.shift_ms", "ms"},
	{"edgepack.stars_ms", "ms"},
	{"fracpack.saturation_ms", "ms"},
	{"fracpack.colouring_ms", "ms"},
	{"check.verify_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.compile_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.other_ms", "ms"},
	{"serve.response_kb", "KB"},
	{"serve.memo_hits", "count"},
	{"serve.compiles", "count"},
	{"serve.weight_updates", "count"},
	{"dist.request_p50_ms", "ms"},
	{"dist.compute_ms", "ms"},
	{"dist.serialize_ms", "ms"},
	{"dist.wait_ms", "ms"},
	{"dist.send_ms", "ms"},
	{"dist.wait_frac", "ratio"},
	{"dist.skew_ratio", "ratio"},
	{"dist.frames_per_run", "count"},
	{"dist.frame_bytes_per_run", "bytes"},
	{"dist.stalled_runs", "count"},
	{"gc.cycles_per_op", "count"},
	{"gc.cpu_ms_per_op", "ms"},
	{"calib.kernel_ms", "ms"},
	{"wall.latency_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// setupLayers are averaged over traced set-ups; every other summed
// layer is averaged over traced ops.
var setupLayers = map[string]bool{
	"graph.decode_ms": true, "graph.fingerprint_ms": true, "graph.flatten_ms": true,
	"bipartite.decode_ms": true, "bipartite.fingerprint_ms": true,
	"shard.build_ms": true, "anoncover.compile_ms": true, "warmup_ms": true,
}

type ledger struct {
	ops     int
	opMS    float64
	op      map[string]float64 // per-op layers, summed over traced ops
	setupN  int
	setupMS float64
	setup   map[string]float64 // set-up layers, summed over set-ups
	gauge   map[string]float64 // layers measured once per run
	roundUS []float64          // calibrated duration of every observed round
	roundNS float64            // Σ calibrated ns over observed rounds ...
	nodeRds float64            // ... and Σ nodes over the same rounds

	fleetOps int                // fleet writes booked (serve-mix only)
	fleetMS  float64            // Σ their calibrated latency
	fleetLat []float64          // their calibrated latencies
	fleet    map[string]float64 // dist.* layers, summed over fleet writes
	misfits  int                // ops whose own layers exceeded their latency
}

func newLedger() *ledger {
	return &ledger{op: map[string]float64{}, setup: map[string]float64{}, gauge: map[string]float64{},
		fleet: map[string]float64{}}
}

func (l *ledger) addOp(cal float64, sp spans, factor float64) {
	l.ops++
	l.opMS += cal
	for k, v := range sp {
		l.op[k] += v * factor
	}
}

func (l *ledger) addSetup(cal float64, sp spans, factor float64) {
	l.setupN++
	l.setupMS += cal
	for k, v := range sp {
		l.setup[k] += v * factor
	}
}

// roundClock stamps the observer callbacks of one run.  A run that
// starts over at round 1 (the wire path overflowed and the run is
// repeated on the boxed path) keeps only the last attempt's stamps; the
// time up to the aborted attempt's last round is the rerun cost.
type roundClock struct {
	start, end time.Time
	ts         []time.Time
	aborted    time.Time // last stamp of the last aborted attempt
}

func newRoundClock(rounds int) *roundClock { return &roundClock{ts: make([]time.Time, 0, rounds)} }

func (rc *roundClock) observe(ri anoncover.RoundInfo) {
	now := time.Now()
	if ri.Round <= len(rc.ts) {
		rc.aborted = rc.ts[len(rc.ts)-1]
		rc.ts = rc.ts[:0]
	}
	rc.ts = append(rc.ts, now)
}

// addRounds books one observed run: an aborted attempt, call (or abort)
// to first callback, each later round to the segment seg names, last
// callback to return.
func (l *ledger) addRounds(rc *roundClock, factor float64, nodes int, seg func(round int) string) {
	if len(rc.ts) == 0 {
		return
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 * factor }
	first := rc.start
	if !rc.aborted.IsZero() {
		l.op["anoncover.rerun_ms"] += ms(rc.start, rc.aborted)
		first = rc.aborted
	}
	l.op["anoncover.first_round_ms"] += ms(first, rc.ts[0])
	l.op["anoncover.assemble_ms"] += ms(rc.ts[len(rc.ts)-1], rc.end)
	for i := 1; i < len(rc.ts); i++ {
		d := ms(rc.ts[i-1], rc.ts[i])
		l.op[seg(i+1)] += d
		l.roundUS = append(l.roundUS, d*1000)
		l.roundNS += d * 1e6
		l.nodeRds += float64(nodes)
	}
}

// value returns a layer's per-op or per-set-up mean, or its gauge.
func (l *ledger) value(name string) float64 {
	if v, ok := l.gauge[name]; ok {
		return v
	}
	if strings.HasPrefix(name, "dist.") {
		if l.fleetOps == 0 {
			return 0
		}
		return l.fleet[name] / float64(l.fleetOps)
	}
	if setupLayers[name] {
		if l.setupN == 0 {
			return 0
		}
		return l.setup[name] / float64(l.setupN)
	}
	if l.ops == 0 {
		return 0
	}
	return l.op[name] / float64(l.ops)
}

// metrics returns every per-layer metric for the run.
func (l *ledger) metrics(b *bench) map[string]metric {
	if len(l.roundUS) > 0 {
		l.gauge["sim.round_p50_us"] = median(l.roundUS)
		l.gauge["sim.round_max_us"] = slices.Max(l.roundUS)
		l.gauge["sim.ns_per_node_round"] = l.roundNS / l.nodeRds
	}
	ops := float64(b.measured)
	l.gauge["gc.cycles_per_op"] = float64(b.gcCycles) / ops
	l.gauge["gc.cpu_ms_per_op"] = b.gcCPU * 1000 / ops
	l.gauge["calib.kernel_ms"] = median(b.cal.samples)
	l.gauge["wall.latency_p50_ms"] = median(b.raw)
	l.gauge["trace.overhead_ms"] = median(b.tracedLat) - median(b.lat)
	m := map[string]metric{}
	for _, pl := range perLayer {
		m[pl.name] = metric{l.value(pl.name), pl.unit}
	}
	return m
}

// fit records one op whose layers, timed inside it, took inside ms of
// its total ms of wall time; more than the total is a measuring fault.
func (l *ledger) fit(what string, inside, total float64) {
	if inside > total {
		l.misfits++
		fmt.Fprintf(os.Stderr, "%s: layers take %.4f ms of a %.4f ms interval\n", what, inside, total)
	}
}

// print writes the ledger: the set-up, op and fleet-write intervals
// with the layers timed inside them, the remaining self time and
// whether the layers fit inside the interval, then every per-layer
// metric.  It fails if the layers of any single op, or their means,
// exceed the interval they were timed in.
func (l *ledger) print(w io.Writer, b *bench, m map[string]metric, inSetup, inOp []string) error {
	fmt.Fprintf(w, "ledger %s seed=%d: %d traced ops, %d untraced; tracing overhead %+.3f ms on latency_p50_ms (traced %.3f, untraced %.3f)\n",
		b.workload, b.seed, l.ops, len(b.lat), median(b.tracedLat)-median(b.lat), median(b.tracedLat), median(b.lat))
	fits := l.printInterval(w, "setup", l.setupMS/float64(max(1, l.setupN)), inSetup)
	fits = l.printInterval(w, "op", l.opMS/float64(max(1, l.ops)), inOp) && fits
	if l.fleetOps > 0 {
		fits = l.printInterval(w, "fleet write", l.fleetMS/float64(l.fleetOps), distPhases) && fits
	}
	for _, pl := range perLayer {
		fmt.Fprintf(w, "  %-28s %12.4f %s\n", pl.name, m[pl.name].Value, pl.unit)
	}
	if !fits || l.misfits > 0 {
		return errors.New("layers exceed the interval they were timed in")
	}
	return nil
}

func (l *ledger) printInterval(w io.Writer, name string, total float64, layers []string) bool {
	fmt.Fprintf(w, "  %-28s %12.4f ms\n", name, total)
	sum := 0.0
	for _, k := range layers {
		v := l.value(k)
		sum += v
		fmt.Fprintf(w, "    %-26s %12.4f ms\n", k, v)
	}
	verdict := "layers fit inside"
	if sum > total {
		verdict = "LAYERS EXCEED THE INTERVAL"
	}
	fmt.Fprintf(w, "    %-26s %12.4f ms (%s)\n", "(self)", total-sum, verdict)
	return sum <= total
}
