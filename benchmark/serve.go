package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"anoncover"
	"anoncover/internal/obs"
	"anoncover/internal/serve"
)

// Service workloads: an in-process serve.Server behind a real loopback
// HTTP listener, driven by one closed-loop client.

const (
	mixGridR, mixGridC = 40, 40
	mixPLN             = 500
	mixSCS, mixSCU     = 40, 70
	mixColdN, mixColdM = 1600, 3200
	mixColdDeg         = 6
	mixReads           = 3 // memo reads after every write
	mixColds           = 3 // cold posts per round
	// vectors per topology: twice the server's default memo of 8, so
	// cycling through them in order never hits the LRU memo.
	vectors = 16
)

// service is a running server and its listener.  The workloads run it
// with the default configuration; the fleet pass makes it a
// coordinator.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startService(cfg serve.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := &service{srv: serve.New(cfg)}
	svc.hs = &http.Server{Handler: svc.srv.Handler()}
	svc.served = make(chan error, 1)
	go func() { svc.served <- svc.hs.Serve(ln) }()
	svc.base = "http://" + ln.Addr().String()
	svc.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return svc, nil
}

// close stops the listener and the server and waits for the serving
// goroutine to return.
func (svc *service) close() {
	svc.hs.Close()
	<-svc.served
	svc.client.CloseIdleConnections()
	svc.srv.Close()
}

// post sends body and returns the response body and run ID.
func (svc *service) post(path string, body []byte) ([]byte, string, error) {
	resp, err := svc.client.Post(svc.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, resp.Header.Get("X-Run-Id"), nil
}

func (svc *service) get(path string, v any) error {
	resp, err := svc.client.Get(svc.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// coverResp is the part of a vertex-cover or set-cover response the
// checker reads.
type coverResp struct {
	Fingerprint     string `json:"fingerprint"`
	Cover           []int  `json:"cover"`
	Weight          int64  `json:"weight"`
	Rounds          int    `json:"rounds"`
	ScheduledRounds int    `json:"scheduled_rounds"`
	Bytes           int64  `json:"bytes"`
	Verified        bool   `json:"verified"`
	Cache           string `json:"cache"`
}

func weightsBody(w []int64) []byte {
	body, _ := json.Marshal(struct {
		Weights []int64 `json:"weights"`
	}{w}) // marshalling an int64 slice cannot fail
	return body
}

// topo is one topology the service workloads post: its structure, its
// weight vectors, the fingerprint the server reported, and the
// Sequential-engine reference result per vector.
type topo struct {
	vc   *vcInst
	sc   *scInst
	w    [][]int64
	fp   string
	refs map[int][]bool
	next int // next vector to post
}

func (t *topo) kind() string {
	if t.sc != nil {
		return "setcover"
	}
	return "vertexcover"
}

func (t *topo) text(i int) []byte {
	if t.sc != nil {
		return t.sc.text(t.w[i])
	}
	return t.vc.text(t.w[i])
}

// reference returns (computing once) the library Sequential cover for
// vector i, itself checked packing and all.
func (t *topo) reference(i int) ([]bool, error) {
	if c, ok := t.refs[i]; ok {
		return c, nil
	}
	var cover []bool
	if t.sc != nil {
		res, err := libSC(t.sc, t.w[i])
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		cover = res.Cover
	} else {
		res, err := libVC(t.vc, t.w[i])
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		cover = res.Cover
	}
	t.refs[i] = cover
	return cover, nil
}

// check verifies a served response for vector i of t: a cover of the
// benchmark's instance with the reported weight, the predicted round
// schedule, the server's own verification flag, and equality with the
// Sequential reference.  It returns the benchmark's lower bound on OPT.
func (t *topo) check(r *coverResp, i int) (int64, error) {
	w := t.w[i]
	if !r.Verified {
		return 0, errors.New("response not verified by the server")
	}
	var cover []bool
	var err error
	var lower int64
	if t.sc != nil {
		if cover, err = indicesToCover(r.Cover, t.sc.s); err != nil {
			return 0, err
		}
		if err = checkSCCover(t.sc, w, cover, r.Weight); err != nil {
			return 0, err
		}
		want := anoncover.PredictedSetCoverRounds(t.sc.maxF(), t.sc.maxK(), maxWeight(w))
		if err = checkSCRounds(r.Rounds, r.ScheduledRounds, want); err != nil {
			return 0, err
		}
		lower = byeSC(t.sc, w)
	} else {
		if cover, err = indicesToCover(r.Cover, t.vc.n); err != nil {
			return 0, err
		}
		if err = checkVCCover(t.vc, w, cover, r.Weight); err != nil {
			return 0, err
		}
		if err = checkRounds(r.Rounds, anoncover.PredictedVertexCoverRounds(t.vc.maxDeg(), maxWeight(w))); err != nil {
			return 0, err
		}
		lower = byeVC(t.vc, w)
	}
	ref, err := t.reference(i)
	if err != nil {
		return 0, err
	}
	return lower, sameCover(cover, ref)
}

func newTopo(vc *vcInst, sc *scInst, seed int64, stream uint64) *topo {
	t := &topo{vc: vc, sc: sc, refs: map[int][]bool{}}
	wr := newRNG(seed, stream)
	n := 0
	if sc != nil {
		n = sc.s
	} else {
		n = vc.n
	}
	for i := 0; i < vectors; i++ {
		t.w = append(t.w, randWeights(wr, n, maxW))
	}
	return t
}

// request returns the path and body that post vector i of t: the
// whole instance when full (compile or cache hit), else the weights
// alone against the cached topology.
func (t *topo) request(i int, full bool) (string, []byte) {
	if full {
		return "/v1/" + t.kind() + "?verify=true", t.text(i)
	}
	return "/v1/" + t.kind() + "/" + t.fp + "?verify=true", weightsBody(t.w[i])
}

// postCover sends a request built by topo.request and decodes the
// cover; a full post records the topology's fingerprint.
func (svc *service) postCover(t *topo, path string, body []byte, full bool) (*coverResp, []byte, string, error) {
	data, id, err := svc.post(path, body)
	if err != nil {
		return nil, nil, "", err
	}
	var r coverResp
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, nil, "", err
	}
	if full {
		t.fp = r.Fingerprint
	}
	return &r, data, id, nil
}

// serveOp is one request of a service workload's sequence.
type serveOp struct {
	class string // request class, for the per-class summary
	t     *topo
	i     int  // weight vector
	full  bool // post the whole instance
}

// runServeOp times one request and queues its check; in traced ops
// it then books the service's own phase split from the run log and,
// for writes, replays the run for its per-round split.
func runServeOp(b *bench, svc *service, traced bool, op serveOp, replay *replayer) {
	var r *coverResp
	var body []byte
	var id string
	path, req := op.t.request(op.i, op.full)
	b.op(traced, func(spans) error {
		var err error
		r, body, id, err = svc.postCover(op.t, path, req, op.full)
		return err
	}, func() error {
		lower, err := op.t.check(r, op.i)
		if err == nil {
			b.ratio(r.Weight, lower)
		}
		return err
	}, func(rec opRec) {
		if r.Cache != "memo" {
			b.executed(r.Rounds, r.Bytes)
		}
		if !traced {
			b.byClass[op.class] = append(b.byClass[op.class], rec.cal)
			return
		}
		bookRunRecord(b, svc, id, rec, len(body))
		if replay != nil {
			if err := replay.run(b, op.t, op.i); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", b.workload, err)
			}
		}
	})
}

// bookRunRecord books a traced request's phase split from its record
// in GET /v1/runs/{id}; serve.other_ms is what the record leaves of
// the client's latency.
func bookRunRecord(b *bench, svc *service, id string, rec opRec, bodyLen int) {
	led := b.led
	led.op["serve.response_kb"] += float64(bodyLen) / 1000
	var rr obs.RunRecord
	if err := svc.get("/v1/runs/"+id, &rr); err != nil {
		fmt.Fprintf(os.Stderr, "%s: run record %s: %v\n", b.workload, id, err)
		return
	}
	f := rec.factor
	inside := rr.QueueMS + rr.CompileMS + rr.RunMS + rr.VerifyMS
	led.fit("request "+id, inside, rec.cal/f)
	led.op["serve.queue_ms"] += rr.QueueMS * f
	led.op["serve.compile_ms"] += rr.CompileMS * f
	led.op["serve.run_ms"] += rr.RunMS * f
	led.op["check.verify_ms"] += rr.VerifyMS * f
	led.op["serve.other_ms"] += rec.cal - inside*f
}

// statsDelta books the service counters the timed phase moved.
func statsDelta(b *bench, svc *service, before serve.Stats) {
	var after serve.Stats
	if err := svc.get("/v1/stats", &after); err != nil {
		fmt.Fprintf(os.Stderr, "%s: stats: %v\n", b.workload, err)
		return
	}
	b.led.gauge["serve.memo_hits"] = float64(after.MemoHits - before.MemoHits)
	b.led.gauge["serve.compiles"] = float64(after.Compiles - before.Compiles)
	b.led.gauge["serve.weight_updates"] = float64(after.WeightUpdates - before.WeightUpdates)
}

func runServeMix(b *bench) error {
	rng := newRNG(b.seed, 1)
	names := []string{"write-grid", "write-powerlaw", "write-setcover"}
	pool := []*topo{
		newTopo(gridInst(mixGridR, mixGridC), nil, b.seed, 11),
		newTopo(powerLawInst(rng, mixPLN, vcAttach, vcDelta), nil, b.seed, 12),
		newTopo(nil, randomSCInst(rng, mixSCS, mixSCU, scF, scK), b.seed, 13),
	}
	coldRNG := newRNG(b.seed, 3)
	var svc *service
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()
	if err := smallServe(b.seed); err != nil {
		return err
	}
	// Set-up posts every pool topology whole with vector 0, then warms
	// each up with a weight-only post of vector 1.  The bodies are
	// rendered before the clock starts.
	fullBody := make([][]byte, len(pool))
	warmBody := make([][]byte, len(pool))
	for k, t := range pool {
		_, fullBody[k] = t.request(0, true)
		_, warmBody[k] = t.request(1, false)
	}
	for rep := 0; rep < setupReps; rep++ {
		if svc != nil {
			svc.close()
			svc = nil
		}
		err := b.setup(func(sp spans) error {
			var err error
			if svc, err = startService(serve.Config{}); err != nil {
				return err
			}
			for k, t := range pool {
				if _, _, _, err := svc.postCover(t, "/v1/"+t.kind()+"?verify=true", fullBody[k], true); err != nil {
					return err
				}
			}
			return sp.time("warmup_ms", func() error {
				for k, t := range pool {
					if _, _, _, err := svc.postCover(t, "/v1/"+t.kind()+"/"+t.fp+"?verify=true", warmBody[k], false); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}
	for _, t := range pool {
		t.next = 2
	}
	var before serve.Stats
	var replay *replayer
	if b.led != nil {
		if err := svc.get("/v1/stats", &before); err != nil {
			return err
		}
		if err := traceGraphSetup(b, pool[0].text(0), runtime.GOMAXPROCS(0), true); err != nil {
			return err
		}
		if err := traceSCSetup(b, pool[2].text(0), true); err != nil {
			return err
		}
		replay = newReplayer()
		defer replay.close()
	}
	err := b.phase(func(traced bool) error {
		for k, t := range pool {
			i := t.next % vectors
			t.next++
			runServeOp(b, svc, traced, serveOp{class: names[k], t: t, i: i}, replay)
			for r := 0; r < mixReads; r++ {
				runServeOp(b, svc, traced, serveOp{class: "read", t: t, i: i}, nil)
			}
			b.quiesce()
		}
		for c := 0; c < mixColds; c++ {
			g := randomInst(coldRNG, mixColdN, mixColdM, mixColdDeg)
			cold := &topo{vc: g, w: [][]int64{randWeights(coldRNG, g.n, maxW)}, refs: map[int][]bool{}}
			runServeOp(b, svc, traced, serveOp{class: "cold", t: cold, i: 0, full: true}, nil)
			b.quiesce()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.led != nil {
		statsDelta(b, svc, before)
		return fleetPass(b, pool[0])
	}
	return nil
}

// smallServe checks the service path on a brute-forceable instance:
// w(C) <= 2·OPT for vertex cover.
func smallServe(seed int64) error {
	svc, err := startService(serve.Config{})
	if err != nil {
		return err
	}
	defer svc.close()
	return smallVC(seed, func(g *vcInst, w []int64) ([]bool, int64, error) {
		t := &topo{vc: g, w: [][]int64{w}, refs: map[int][]bool{}}
		path, body := t.request(0, true)
		r, _, _, err := svc.postCover(t, path, body, true)
		if err != nil {
			return nil, 0, err
		}
		if _, err := t.check(r, 0); err != nil {
			return nil, 0, err
		}
		cover, err := indicesToCover(r.Cover, g.n)
		return cover, r.Weight, err
	})
}

// replayer re-runs a traced service request through a library session
// compiled with the server's default engine settings, with an observer,
// to split the run by algorithm segment.  The service itself exposes
// no per-round clock on the memoizable path.
type replayer struct {
	vc map[*topo]*anoncover.Solver
	sc map[*topo]*anoncover.SetCoverSolver
}

func newReplayer() *replayer {
	return &replayer{vc: map[*topo]*anoncover.Solver{}, sc: map[*topo]*anoncover.SetCoverSolver{}}
}

func (rp *replayer) close() {
	for _, s := range rp.vc {
		s.Close()
	}
	for _, s := range rp.sc {
		s.Close()
	}
}

func (rp *replayer) run(b *bench, t *topo, i int) error {
	opts := []anoncover.Option{anoncover.WithEngine(anoncover.EngineSharded), anoncover.WithWorkers(runtime.GOMAXPROCS(0))}
	var rounds, nodes int
	var seg func(int) string
	var solve func(rc *roundClock) error
	w := t.w[i]
	if t.sc != nil {
		s := rp.sc[t]
		if s == nil {
			ai, err := anoncover.ReadSetCover(bytes.NewReader(t.text(i)))
			if err != nil {
				return err
			}
			if s, err = anoncover.CompileSetCover(ai, opts...); err != nil {
				return err
			}
			rp.sc[t] = s
		}
		f, k := t.sc.maxF(), t.sc.maxK()
		rounds, nodes, seg = anoncover.PredictedSetCoverRounds(f, k, maxWeight(w)), t.sc.s+t.sc.u, fracpackSegment(f, k, maxWeight(w))
		solve = func(rc *roundClock) error {
			_, err := s.SetCover(context.Background(), anoncover.WithWeights(w),
				anoncover.WithObserver(rc.observe))
			return err
		}
	} else {
		s := rp.vc[t]
		if s == nil {
			ag, err := anoncover.ReadGraph(bytes.NewReader(t.text(i)))
			if err != nil {
				return err
			}
			if s, err = anoncover.Compile(ag, opts...); err != nil {
				return err
			}
			rp.vc[t] = s
		}
		d, mw := t.vc.maxDeg(), maxWeight(w)
		rounds, nodes, seg = anoncover.PredictedVertexCoverRounds(d, mw), t.vc.n, edgepackSegment(d, mw)
		solve = func(rc *roundClock) error {
			_, err := s.VertexCover(context.Background(), anoncover.WithWeights(w),
				anoncover.WithObserver(rc.observe))
			return err
		}
	}
	rc := newRoundClock(rounds)
	_, factor, err := b.cal.measure(func() error {
		rc.start = time.Now()
		err := solve(rc)
		rc.end = time.Now()
		return err
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	b.led.addRounds(rc, factor, nodes, seg)
	return nil
}
