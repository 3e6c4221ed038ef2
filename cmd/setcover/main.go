// Command setcover runs the distributed f-approximation for
// minimum-weight set cover on an instance read from a file or generated
// on the fly, verifies the result, and prints statistics.
//
// Usage:
//
//	setcover -s 40 -u 120 -f 3 -k 8 -maxw 50
//	setcover -file instance.txt -exact
//	setcover -symmetric 4     (the Figure 3 lower-bound instance)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"anoncover"
)

func main() {
	var (
		file      = flag.String("file", "", "instance file (text format); overrides the generator")
		s         = flag.Int("s", 20, "subsets (generator)")
		u         = flag.Int("u", 60, "elements (generator)")
		f         = flag.Int("f", 3, "maximum element frequency (generator)")
		k         = flag.Int("k", 8, "maximum subset size (generator)")
		maxW      = flag.Int64("maxw", 1, "maximum subset weight")
		seed      = flag.Int64("seed", 1, "generator seed")
		symmetric = flag.Int("symmetric", 0, "use the symmetric K_{p,p} lower-bound instance")
		engine    = flag.String("engine", "sequential", "engine: sequential | sharded | csp")
		doOpt     = flag.Bool("exact", false, "also compute the exact optimum (small instances)")
		earlyExit = flag.Bool("earlyexit", false, "stop the simulation once the packing is maximal (ScheduledRounds stays the honest cost)")
		reweigh   = flag.Int("reweigh", 0, "after the main run, rerun N times with fresh random -maxw subset weights, reusing the compiled solver via snapshot weight updates (no recompile)")
	)
	flag.Parse()

	var ins *anoncover.SetCoverInstance
	switch {
	case *file != "":
		fh, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		ins, err = anoncover.ReadSetCover(fh)
		fh.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *symmetric > 0:
		ins = anoncover.SymmetricSetCover(*symmetric)
	default:
		ins = anoncover.RandomSetCover(*s, *u, *f, *k, *maxW, *seed)
	}

	eng, err := anoncover.ParseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}

	// Compile once, then run through the session API, which surfaces
	// option and instance errors instead of panicking.
	opts := []anoncover.Option{anoncover.WithEngine(eng)}
	if *earlyExit {
		opts = append(opts, anoncover.WithEarlyExit())
	}
	solver, err := anoncover.CompileSetCover(ins, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer solver.Close()
	res, err := solver.SetCover(context.Background())
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
	fmt.Printf("instance: |S|=%d |U|=%d f=%d k=%d W=%d\n",
		ins.Subsets(), ins.Elements(), ins.MaxFrequency(), ins.MaxSubsetSize(), ins.MaxWeight())
	fmt.Printf("cover: %d subsets, weight %d (%d-approximation, certificate verified)\n",
		size, res.Weight, ins.MaxFrequency())
	fmt.Printf("rounds: %d (schedule %d)   messages: %d\n",
		res.Rounds, res.ScheduledRounds, res.Messages)
	if *doOpt {
		_, opt := anoncover.OptimalSetCover(ins)
		fmt.Printf("exact optimum: %d   measured ratio: %.4f\n", opt, float64(res.Weight)/float64(opt))
	}

	// Weight-snapshot reruns on the compiled solver; see cmd/vcover.
	if *reweigh > 0 {
		maxW := *maxW
		if maxW < 2 {
			maxW = 50
		}
		r := rand.New(rand.NewSource(*seed + 7))
		fmt.Printf("reweigh: %d reruns on the compiled solver (snapshot updates, no recompile)\n", *reweigh)
		for i := 1; i <= *reweigh; i++ {
			w := make([]int64, ins.Subsets())
			for j := range w {
				w[j] = 1 + r.Int63n(maxW)
			}
			if err := solver.UpdateWeights(w); err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			rr, err := solver.SetCover(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			if err := rr.Verify(); err != nil {
				log.Fatalf("INVARIANT VIOLATION on rerun %d: %v", i, err)
			}
			fmt.Printf("  rerun %d: cover weight %d rounds %d (%v, verified)\n",
				i, rr.Weight, rr.Rounds, time.Since(start).Round(time.Microsecond))
		}
	}
}
