package main

import (
	"fmt"
	"os"
	"time"

	"anoncover/internal/dist"
	"anoncover/internal/obs"
	"anoncover/internal/serve"
)

// Fleet pass, run only by traced serve-mix runs: the service as the
// coordinator of two in-process dist.Workers over loopback TCP, sent
// one weight-only write of every weight vector of the mix's grid.  It
// reads the dist.* layers from the service's GET /v1/runs/{id}/trace
// and the workers' transport counters.  It is not an end-to-end
// workload: on some weight vectors a fleet run stalls for the frame
// timeout (see README.md), so its latencies depend on the seed.

const (
	fleetWorkers = 2
	// fleetTimeout is the coordinator's and the workers' frame timeout.
	// When one shard's wire lane overflows, its peer waits for frames
	// until this timeout before the run is repeated boxed; the pass sets
	// it below the 30 s default so a stall costs seconds, not the run.
	fleetTimeout = 2 * time.Second
)

// fleet is a coordinator service and its workers.
type fleet struct {
	workers []*dist.Worker
	served  []chan error
	svc     *service
}

func startFleet() (*fleet, error) {
	fl := &fleet{}
	var addrs []string
	for i := 0; i < fleetWorkers; i++ {
		w := dist.NewWorker()
		w.FrameTimeout = fleetTimeout
		if err := w.Listen("127.0.0.1:0"); err != nil {
			fl.close()
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- w.Serve() }()
		fl.workers = append(fl.workers, w)
		fl.served = append(fl.served, done)
		addrs = append(addrs, w.Addr())
	}
	svc, err := startService(serve.Config{WorkerAddrs: addrs, DistTimeout: fleetTimeout, ProbeInterval: -1})
	if err != nil {
		fl.close()
		return nil, err
	}
	fl.svc = svc
	return fl, nil
}

// close stops the service, then every worker, and waits for each
// worker's accept loop to return.
func (fl *fleet) close() {
	if fl.svc != nil {
		fl.svc.close()
	}
	for i, w := range fl.workers {
		w.Close()
		<-fl.served[i]
	}
}

// sent sums the frames and bytes the workers have sent.
func (fl *fleet) sent() (frames, bytes int64) {
	for _, w := range fl.workers {
		m := w.Metrics()
		frames += m.FramesOut.Load()
		bytes += m.BytesOut.Load()
	}
	return frames, bytes
}

// fleetPass compiles t on a fresh fleet with vector 0, then times one
// weight-only write of every vector, 1 to 15 and then 0 (out of the
// memo of 8 by then), each between two kernel samples, and checks it
// like a serve-mix write.  Every vector is sent, the ones whose run
// stalls too.
func fleetPass(b *bench, t *topo) error {
	fl, err := startFleet()
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	defer fl.close()
	path, body := t.request(0, true)
	if _, _, _, err := fl.svc.postCover(t, path, body, true); err != nil {
		return fmt.Errorf("fleet set-up: %w", err)
	}
	frames0, bytes0 := fl.sent()
	led := b.led
	led.gauge["dist.stalled_runs"] = 0
	var booked int
	for j := 1; j <= vectors; j++ {
		i := j % vectors
		b.attempted++
		path, body := t.request(i, false)
		var r *coverResp
		var id string
		raw, f, err := b.cal.measure(func() error {
			var err error
			r, _, id, err = fl.svc.postCover(t, path, body, false)
			return err
		})
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "%s: fleet write %d failed: %v\n", b.workload, i, err)
			continue
		}
		if _, err := t.check(r, i); err != nil {
			b.failed++
			b.wrong++
			fmt.Fprintf(os.Stderr, "%s: fleet write %d: wrong output: %v\n", b.workload, i, err)
			continue
		}
		if raw >= float64(fleetTimeout.Milliseconds()) {
			led.gauge["dist.stalled_runs"]++
			fmt.Fprintf(os.Stderr, "%s: fleet write %d stalled: %.0f ms\n", b.workload, i, raw)
		}
		var rr obs.RunRecord
		var rt obs.RunTrace
		if err := fl.svc.get("/v1/runs/"+id, &rr); err != nil {
			return fmt.Errorf("fleet run record: %w", err)
		}
		if rr.Cache == "dist_failover" {
			// Ran on a local solver: no fleet trace to book.
			fmt.Fprintf(os.Stderr, "%s: fleet write %d failed over to a local solver\n", b.workload, i)
			continue
		}
		if err := fl.svc.get("/v1/runs/"+id+"/trace", &rt); err != nil {
			return fmt.Errorf("fleet trace: %w", err)
		}
		led.addFleetOp(raw, f, &rt)
		booked++
	}
	frames1, bytes1 := fl.sent()
	if booked > 0 {
		led.gauge["dist.frames_per_run"] = float64(frames1-frames0) / float64(booked)
		led.gauge["dist.frame_bytes_per_run"] = float64(bytes1-bytes0) / float64(booked)
		led.gauge["dist.request_p50_ms"] = median(led.fleetLat)
	}
	return nil
}

// distPhases are the phase totals each shard's trace carries, booked
// per shard: their mean over the shards of a run lies inside the run.
var distPhases = []string{"dist.compute_ms", "dist.serialize_ms", "dist.wait_ms", "dist.send_ms"}

// addFleetOp books one fleet write: raw ms and calibration factor of
// the request, and the merged trace of its run.
func (l *ledger) addFleetOp(raw, factor float64, rt *obs.RunTrace) {
	cal := raw * factor
	l.fleetOps++
	l.fleetMS += cal
	l.fleetLat = append(l.fleetLat, cal)
	var phase [4]float64
	for _, sp := range rt.Shards {
		tt := sp.Totals
		for k, ns := range [4]int64{tt.Compute, tt.Serialize, tt.Wait, tt.Send} {
			phase[k] += float64(ns) / 1e6 / float64(len(rt.Shards))
		}
	}
	inside := 0.0
	for k, name := range distPhases {
		l.fleet[name] += phase[k] * factor
		inside += phase[k]
	}
	l.fit("fleet write", inside, raw)
	l.fleet["dist.wait_frac"] += rt.WaitFrac
	l.fleet["dist.skew_ratio"] += rt.SkewRatio
}
