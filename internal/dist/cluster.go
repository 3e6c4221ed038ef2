package dist

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anoncover/internal/obs"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// defaultFrameTimeout bounds any single network barrier wait and any
// single frame write.  It is a hang backstop, not a pacing knob: a
// peer that dies surfaces much faster through its connection reset.
const defaultFrameTimeout = 30 * time.Second

// Cluster is the loopback deployment of the distributed transport: k
// in-process workers, each owning one shard of the partition and
// holding its node programs by pointer, exchanging every halo message
// as real frames over a 127.0.0.1 TCP mesh.  It implements
// sim.DistRunner, so a run selects it with
//
//	sim.Options{Engine: sim.Distributed, Dist: cluster}
//
// and the algorithm packages' results come back through the programs
// exactly as with the in-memory engines.  Outputs and Stats are
// bit-identical to the Sequential reference engine — the transport is
// an execution detail, and the equivalence suite pins it down across
// the wire and boxed paths.
//
// Runs are serialized: the mesh is built per run (pair connections
// between adjacent shards only) and torn down with it, so an aborted
// run can never leak half-written frames into the next one.
type Cluster struct {
	workers int
	// FrameTimeout bounds each barrier wait and frame write; zero
	// means the default.  Set before the first run.
	FrameTimeout time.Duration
	// TraceOff disables per-round phase tracing (on by default; the
	// bench harness toggles it to measure the tracer's own cost).
	TraceOff bool

	mx        Metrics
	mu        sync.Mutex // serializes runs
	nextID    atomic.Uint32
	lastTrace *obs.RunTrace
}

// LastTrace returns the merged phase trace of the most recent run, or
// nil if tracing was off (or no run has completed).
func (c *Cluster) LastTrace() *obs.RunTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastTrace
}

// NewCluster returns a loopback cluster of the given worker count
// (minimum 1).  The partitioner may still clamp the effective shard
// count below it for tiny topologies; surplus workers idle.
func NewCluster(workers int) *Cluster {
	if workers < 1 {
		workers = 1
	}
	return &Cluster{workers: workers, FrameTimeout: defaultFrameTimeout}
}

// Metrics exposes the cluster's transport counters.
func (c *Cluster) Metrics() *Metrics { return &c.mx }

// RunPort implements sim.DistRunner.
func (c *Cluster) RunPort(top sim.Topology, progs []sim.PortProgram, rounds int, opt sim.Options) (sim.Stats, error) {
	return c.run(top, progs, nil, rounds, opt)
}

// RunBroadcast implements sim.DistRunner.
func (c *Cluster) RunBroadcast(top sim.Topology, progs []sim.BroadcastProgram, rounds int, opt sim.Options) (sim.Stats, error) {
	return c.run(top, nil, progs, rounds, opt)
}

func (c *Cluster) run(top sim.Topology, port []sim.PortProgram, bcast []sim.BroadcastProgram,
	rounds int, opt sim.Options) (sim.Stats, error) {

	c.mu.Lock()
	defer c.mu.Unlock()

	var st *shard.Topology
	if pre, ok := top.(*shard.Topology); ok && pre.K() <= c.workers {
		st = pre
	} else {
		ft, err := shard.Flat(top)
		if err != nil {
			return sim.Stats{}, err
		}
		st = shard.BuildK(ft, c.workers)
	}
	k := st.K()

	timeout := c.FrameTimeout
	if timeout <= 0 {
		timeout = defaultFrameTimeout
	}
	runID := c.nextID.Add(1)
	c.mx.Runs.Add(1)

	rs := newRunState()
	stages := make([]*staging, k)
	segIdx := make([]map[int32]int, k)
	waits := make([][]*PairWait, k)
	for s := 0; s < k; s++ {
		sh := &st.Shards[s]
		stages[s] = newStaging(len(sh.In))
		segIdx[s] = make(map[int32]int, len(sh.In))
		for si, in := range sh.In {
			segIdx[s][in.Src] = si
			waits[s] = append(waits[s], c.mx.pairWait(in.Src, int32(s)))
		}
	}

	peers, cleanup, err := c.dialMesh(st, runID, timeout)
	if err != nil {
		c.mx.RunErrors.Add(1)
		return sim.Stats{}, err
	}
	defer cleanup()

	// One reader per connection endpoint: it delivers data frames to
	// its shard's staging and turns transport failures into run
	// failures — unless the run is already finished, in which case
	// teardown EOFs are expected and ignored.
	var readers sync.WaitGroup
	for s := 0; s < k; s++ {
		for peer, fc := range peers[s] {
			readers.Add(1)
			go func(self int32, peer int32, fc *frameConn) {
				defer readers.Done()
				c.readLoop(self, peer, fc, runID, stages[self], segIdx[self], rs)
			}(int32(s), peer, fc)
		}
	}

	execs := make([]*shardExec, k)
	for s := 0; s < k; s++ {
		sh := &st.Shards[s]
		e := &shardExec{
			id:    int32(s),
			sh:    sh,
			peers: peers[s],
			runID: runID,

			rounds:       rounds,
			noWire:       opt.NoWire,
			scrambleSeed: opt.ScrambleSeed,
			budget:       opt.RoundBudget,
			ctx:          opt.Context,
			timeout:      timeout,

			stage: stages[s],
			rs:    rs,
			mx:    &c.mx,
			waits: waits[s],
		}
		if !c.TraceOff {
			e.trace = obs.NewShardTrace(int32(s), rounds, 0)
		}
		if port != nil {
			e.port = make([]sim.PortProgram, len(sh.Nodes))
			for i, v := range sh.Nodes {
				e.port[i] = port[v]
			}
		} else {
			e.bcast = make([]sim.BroadcastProgram, len(sh.Nodes))
			for i, v := range sh.Nodes {
				e.bcast[i] = bcast[v]
			}
		}
		execs[s] = e
	}

	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(e *shardExec) {
			defer wg.Done()
			e.run()
		}(execs[s])
	}
	wg.Wait()
	err = rs.failure()
	rs.finish()
	cleanup() // idempotent; unblocks the readers before we wait on them
	readers.Wait()

	if !c.TraceOff {
		sps := make([]*obs.ShardSpans, k)
		for s, e := range execs {
			if e.trace != nil {
				sps[s] = e.trace.Spans(err != nil)
			}
		}
		c.lastTrace = obs.MergeTrace("", sps)
	}

	if err != nil {
		c.mx.RunErrors.Add(1)
		return sim.Stats{}, err
	}
	stats := sim.Stats{Rounds: rounds}
	for _, e := range execs {
		stats.Messages += e.msgs
		stats.Bytes += e.bytes
	}
	return stats, nil
}

// readLoop drains one connection endpoint for shard self.
func (c *Cluster) readLoop(self, peer int32, fc *frameConn, runID uint32,
	stage *staging, segIdx map[int32]int, rs *runState) {

	for {
		f, err := fc.read()
		if err != nil {
			if !rs.closed() && rs.failure() == nil {
				rs.fail(fmt.Errorf("dist: shard %d reading from peer %d: %w", self, peer, err), prioIO)
			}
			return
		}
		if f.run != runID {
			c.mx.StaleDrops.Add(1)
			continue
		}
		if int32(f.dst) != self || int32(f.src) != peer {
			rs.fail(fmt.Errorf("%w: frame %d->%d on the %d<->%d connection",
				ErrBadFrame, f.src, f.dst, peer, self), prioIO)
			return
		}
		switch f.typ {
		case fLanes, fBoxed:
			si, ok := segIdx[int32(f.src)]
			if !ok {
				rs.fail(fmt.Errorf("%w: data frame from non-adjacent shard %d", ErrBadFrame, f.src), prioIO)
				return
			}
			if err := stage.deliver(si, &f); err != nil {
				rs.fail(err, prioIO)
				return
			}
		default:
			rs.fail(fmt.Errorf("%w: unexpected %d frame between shards", ErrBadFrame, f.typ), prioIO)
			return
		}
	}
}

// dialMesh builds the per-run connection mesh: one real TCP connection
// per adjacent shard pair, dialer = lower id, identified by an
// fPeerHello frame.  peers[s][t] is shard s's endpoint for peer t.
func (c *Cluster) dialMesh(st *shard.Topology, runID uint32, timeout time.Duration) (
	peers []map[int32]*frameConn, cleanup func(), err error) {

	k := st.K()
	peers = make([]map[int32]*frameConn, k)
	for s := range peers {
		peers[s] = make(map[int32]*frameConn)
	}
	type pair struct{ lo, hi int32 }
	want := map[pair]bool{}
	for s := range st.Shards {
		for _, t := range peerSet(&st.Shards[s]) {
			lo, hi := int32(s), t
			if lo > hi {
				lo, hi = hi, lo
			}
			want[pair{lo, hi}] = true
		}
	}
	if len(want) == 0 {
		return peers, func() {}, nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("dist: loopback listener: %w", err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	var mu sync.Mutex
	var conns []*frameConn
	cleanup = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, fc := range conns {
			fc.close()
		}
		conns = nil
	}
	track := func(fc *frameConn) {
		mu.Lock()
		conns = append(conns, fc)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	errc := make(chan error, 2*len(want))

	// Accept side: each accepted connection announces its pair; the
	// endpoint belongs to the higher shard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range want {
			conn, aerr := ln.Accept()
			if aerr != nil {
				errc <- fmt.Errorf("dist: loopback accept: %w", aerr)
				return
			}
			fc := newFrameConn(conn, timeout, &c.mx)
			track(fc)
			hello, herr := fc.readTimeout(timeout)
			if herr != nil {
				errc <- fmt.Errorf("dist: loopback hello: %w", herr)
				return
			}
			if hello.typ != fPeerHello || hello.run != runID ||
				int(hello.dst) >= len(peers) || int(hello.src) >= len(peers) {
				errc <- fmt.Errorf("%w: bad peer hello %d->%d", ErrBadFrame, hello.src, hello.dst)
				return
			}
			mu.Lock()
			peers[hello.dst][int32(hello.src)] = fc
			mu.Unlock()
		}
	}()

	// Dial side: the lower shard of each pair owns the dialed endpoint.
	for pr := range want {
		wg.Add(1)
		go func(pr pair) {
			defer wg.Done()
			conn, derr := net.DialTimeout("tcp", addr, timeout)
			if derr != nil {
				errc <- fmt.Errorf("dist: loopback dial: %w", derr)
				return
			}
			fc := newFrameConn(conn, timeout, &c.mx)
			track(fc)
			if werr := fc.write(&frame{typ: fPeerHello, src: uint16(pr.lo), dst: uint16(pr.hi), run: runID}); werr != nil {
				errc <- fmt.Errorf("dist: loopback hello: %w", werr)
				return
			}
			mu.Lock()
			peers[pr.lo][pr.hi] = fc
			mu.Unlock()
		}(pr)
	}
	wg.Wait()
	select {
	case err = <-errc:
		cleanup()
		return nil, nil, err
	default:
	}
	return peers, cleanup, nil
}
