// Command vcover runs the distributed vertex cover algorithms on a graph
// read from a file or generated on the fly, verifies the result, and
// prints statistics.
//
// Usage:
//
//	vcover -n 1000 -m 2500 -maxdeg 6 -maxw 100 -seed 1
//	vcover -file graph.txt -model broadcast
//	vcover -n 50 -m 80 -maxdeg 4 -exact
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"anoncover"
)

func main() {
	var (
		file     = flag.String("file", "", "graph file (text format); overrides the generator")
		n        = flag.Int("n", 100, "nodes (generator)")
		m        = flag.Int("m", 200, "edges (generator)")
		maxDeg   = flag.Int("maxdeg", 6, "maximum degree (generator)")
		maxW     = flag.Int64("maxw", 1, "maximum node weight; 1 = unweighted")
		seed     = flag.Int64("seed", 1, "generator seed")
		model    = flag.String("model", "port", "communication model: port | broadcast")
		engine   = flag.String("engine", "sequential", "engine: sequential | sharded | csp")
		doOpt    = flag.Bool("exact", false, "also compute the exact optimum (small graphs)")
		budget   = flag.Int("budget", 0, "round budget; the run fails if the schedule needs more")
		progress = flag.Bool("progress", false, "stream per-round progress to stderr")
		reweigh  = flag.Int("reweigh", 0, "after the main run, rerun N times with fresh random -maxw weights, reusing the compiled solver via snapshot weight updates (no recompile)")
	)
	flag.Parse()

	var g *anoncover.Graph
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		g, err = anoncover.ReadGraph(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		g = anoncover.RandomGraph(*n, *m, *maxDeg, *seed)
		if *maxW > 1 {
			g.WeighRandom(*maxW, *seed+1)
		}
	}

	eng, err := anoncover.ParseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}

	// Compile once, then run: the session API is the serving path, and
	// it surfaces option errors instead of panicking.
	opts := []anoncover.Option{anoncover.WithEngine(eng)}
	if *budget > 0 {
		opts = append(opts, anoncover.WithRoundBudget(*budget))
	}
	if *progress {
		opts = append(opts, anoncover.WithObserver(func(ri anoncover.RoundInfo) {
			fmt.Fprintf(os.Stderr, "\rround %d/%d (%d messages)", ri.Round, ri.Total, ri.Messages)
			if ri.Round == ri.Total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	solver, err := anoncover.Compile(g, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()

	var res *anoncover.VertexCoverResult
	ctx := context.Background()
	switch *model {
	case "port":
		res, err = solver.VertexCover(ctx)
	case "broadcast":
		res, err = solver.VertexCoverBroadcast(ctx)
	default:
		log.Fatalf("unknown model %q", *model)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		log.Fatalf("INVARIANT VIOLATION: %v", err)
	}

	size := 0
	for _, in := range res.Cover {
		if in {
			size++
		}
	}
	fmt.Printf("graph: n=%d m=%d Δ=%d W=%d\n", g.N(), g.M(), g.MaxDegree(), g.MaxWeight())
	fmt.Printf("model: %s   engine: %s\n", *model, eng)
	fmt.Printf("cover: %d nodes, weight %d (2-approximation, certificate verified)\n", size, res.Weight)
	fmt.Printf("rounds: %d   messages: %d   bytes: %d\n", res.Rounds, res.Messages, res.Bytes)
	if *doOpt {
		_, opt := anoncover.OptimalVertexCover(g)
		fmt.Printf("exact optimum: %d   measured ratio: %.4f\n", opt, float64(res.Weight)/float64(opt))
	}

	// Weight-snapshot reruns: same compiled topology, fresh weights.
	// Before UpdateWeights landed, each of these paid a full Compile;
	// now they pay only the snapshot install plus the rounds.
	if *reweigh > 0 {
		maxW := *maxW
		if maxW < 2 {
			maxW = 100
		}
		fmt.Printf("reweigh: %d reruns on the compiled solver (snapshot updates, no recompile)\n", *reweigh)
		for i := 1; i <= *reweigh; i++ {
			g.WeighRandom(maxW, *seed+int64(i)+1)
			start := time.Now()
			var rr *anoncover.VertexCoverResult
			switch *model {
			case "port":
				rr, err = solver.VertexCover(ctx)
			case "broadcast":
				rr, err = solver.VertexCoverBroadcast(ctx)
			}
			if err != nil {
				log.Fatal(err)
			}
			if err := rr.Verify(); err != nil {
				log.Fatalf("INVARIANT VIOLATION on rerun %d: %v", i, err)
			}
			fmt.Printf("  rerun %d: W=%d cover weight %d rounds %d (%v, verified)\n",
				i, g.MaxWeight(), rr.Weight, rr.Rounds, time.Since(start).Round(time.Microsecond))
		}
	}
}
