package main

import (
	"runtime"
	"slices"
	"time"
)

// Calibration.  The machine the benchmark runs on changes speed in
// phases of a fraction of a second to a second (shared virtual CPUs),
// and thread CPU time swings with wall time, so neither is steady
// between processes.  Every time the benchmark reports is therefore
// scaled by the speed of a fixed reference kernel measured next to it:
//
//	calibrated = raw × refKernelMS / kernel
//
// where kernel is the smaller of the kernel's times just before and
// just after the measured interval (a set-up, or a batch of ops).
// Interference only ever slows the kernel, so the smaller sample is the
// cleaner one.  refKernelMS is the kernel's median on
// the reference machine (see README.md), so calibrated figures read as
// milliseconds on that machine at its quiet speed.
const refKernelMS = 3.7

// kernelN sizes each kernel lane's arrays: 3×64 KiB of uint32 plus a
// 32 KiB permutation, resident in L2 like the program's per-run state.
const kernelN = 1 << 14

// kernelReps is the number of sort-plus-scatter passes per sample,
// about 4 ms on the reference machine: long enough to time precisely,
// short against the speed phases it tracks.
const kernelReps = 2

// kernel is an allocation-free sort-plus-scatter loop over fixed
// pseudo-random data, run as two lanes at once, one per CPU of the
// reference machine: an op may use both (the Go garbage collector's
// background worker, the sharded engine's workers, the HTTP server
// beside its client), so the kernel must see time taken from either
// CPU.  It lives here, apart from the program, so no change to the
// program can change what it measures.
type kernel struct {
	lanes         [2]kernelLane
	start, done   chan struct{} // one sample of the second lane
	stop, stopped chan struct{}
}

type kernelLane struct {
	src, work, out [kernelN]uint32
	perm           [kernelN]uint16
	sink           uint32
}

// newKernel starts the second lane's goroutine; close stops it.
func newKernel() *kernel {
	k := &kernel{
		start: make(chan struct{}), done: make(chan struct{}),
		stop: make(chan struct{}), stopped: make(chan struct{}),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for l := range k.lanes {
		ln := &k.lanes[l]
		for i := range ln.src {
			ln.src[i] = uint32(next())
			ln.perm[i] = uint16(i)
		}
		for i := len(ln.perm) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			ln.perm[i], ln.perm[j] = ln.perm[j], ln.perm[i]
		}
	}
	go func() {
		defer close(k.stopped)
		for {
			select {
			case <-k.start:
				k.lanes[1].run()
				k.done <- struct{}{}
			case <-k.stop:
				return
			}
		}
	}()
	return k
}

// close stops the second lane's goroutine and waits for it to exit.
func (k *kernel) close() {
	close(k.stop)
	<-k.stopped
}

func (ln *kernelLane) run() {
	for r := 0; r < kernelReps; r++ {
		copy(ln.work[:], ln.src[:])
		slices.Sort(ln.work[:])
		for i, p := range ln.perm {
			ln.out[p] = ln.work[i]
		}
		ln.sink += ln.out[r]
	}
}

// time runs both lanes once and returns the wall time until both have
// finished, in ms.
func (k *kernel) time() float64 {
	t0 := time.Now()
	k.start <- struct{}{}
	k.lanes[0].run()
	<-k.done
	return msSince(t0)
}

// calibrator takes kernel samples on a quiesced program: each sample
// follows a forced garbage collection, so no background work the
// program left behind (a collection an op started, say) runs beside
// the kernel and makes the program look faster.  The collection work
// this keeps out of the timed ops was measured; see README.md.
type calibrator struct {
	k       *kernel
	samples []float64 // every kernel time taken, for calib.kernel_ms
}

// sample collects garbage, then times the kernel, in ms.
func (c *calibrator) sample() float64 {
	runtime.GC()
	t := c.k.time()
	c.samples = append(c.samples, t)
	return t
}

// factor turns raw ms measured between two kernel samples into
// calibrated ms.
func factor(before, after float64) float64 { return refKernelMS / min(before, after) }

// measure runs fn between two kernel samples and returns fn's raw wall
// time in ms and its calibration factor.
func (c *calibrator) measure(fn func() error) (raw, f float64, err error) {
	before := c.sample()
	t0 := time.Now()
	err = fn()
	raw = msSince(t0)
	return raw, factor(before, c.sample()), err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
