// Command benchmark is the repository's end-to-end benchmark.  It runs
// one workload for a fixed time, checks every op's output with its own
// checker, and prints one JSON line of metrics:
//
//	benchmark --workload vc-weights --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer ledger instead.  "benchmark steady" runs one workload
// repeatedly in child processes and prints each metric's spread
// against its bound in BENCHMARK.json.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
)

type workload struct {
	run   func(*bench) error
	setup []string // layers timed inside each set-up
	inOp  []string // layers timed inside each op
}

var workloads = map[string]workload{
	"vc-weights": {
		run:   runVCWeights,
		setup: []string{"graph.decode_ms", "anoncover.compile_ms", "warmup_ms"},
		inOp: []string{"anoncover.update_weights_ms", "anoncover.rerun_ms", "anoncover.first_round_ms",
			"edgepack.phase1_ms", "edgepack.cv_ms", "edgepack.shift_ms", "edgepack.stars_ms",
			"anoncover.assemble_ms"},
	},
	"sc-random": {
		run:   runSCRandom,
		setup: []string{"bipartite.decode_ms", "anoncover.compile_ms", "warmup_ms"},
		inOp: []string{"anoncover.update_weights_ms", "anoncover.rerun_ms", "anoncover.first_round_ms",
			"fracpack.saturation_ms", "fracpack.colouring_ms", "anoncover.assemble_ms"},
	},
	"serve-mix": {
		run:   runServeMix,
		setup: []string{"warmup_ms"},
		// serve.other_ms is what the run record leaves of the client's
		// latency: the op's self time, not a layer inside it.
		inOp: []string{"serve.queue_ms", "serve.compile_ms", "serve.run_ms", "check.verify_ms"},
	},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up runs.
func run() int {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			return 1
		}
		return 0
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload %v --seed N --seconds S --trace 0|1\n",
			slices.Sorted(maps.Keys(workloads)))
		return 2
	}
	b := newBench(*name, *seed, *seconds, *trace == 1)
	defer b.cal.k.close()
	if err := wl.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
		return 1
	}
	if len(b.lat) == 0 {
		fmt.Fprintf(os.Stderr, "%s: no op succeeded (%d attempted)\n", *name, b.attempted)
		return 1
	}
	res := result{Correct: b.wrong == 0, Attempted: b.attempted, Failed: b.failed}
	if b.trace {
		res.Metrics = b.led.metrics(b)
		if err := b.led.print(os.Stdout, b, res.Metrics, wl.setup, wl.inOp); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
			return 1
		}
	} else {
		if len(b.lat) < minOps {
			fmt.Fprintf(os.Stderr, "%s: %d untraced ops, fewer than the %d latency_tail_ms needs; run longer\n", *name, len(b.lat), minOps)
			return 1
		}
		fmt.Printf("raw %s seed=%d: %d ops, latency_p50_ms %.3f, latency_tail_ms %.3f, setup_s %.4f, kernel_ms %.4f (reference %.1f)\n",
			*name, *seed, len(b.raw), median(b.raw), quantile(b.raw, tailQ), median(b.rawSetups), median(b.cal.samples), refKernelMS)
		for _, c := range slices.Sorted(maps.Keys(b.byClass)) {
			v := b.byClass[c]
			fmt.Printf("class %s: %d ops, calibrated median %.3f ms (p10 %.3f, p90 %.3f)\n",
				c, len(v), median(v), quantile(v, 0.1), quantile(v, 0.9))
		}
		res.Metrics = b.endToEnd()
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
