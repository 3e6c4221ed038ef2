package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anoncover/internal/obs"
	"anoncover/internal/sim"
)

// Worker owns shards on behalf of a remote coordinator: it installs
// sessions from WorkerPlan frames, dials its peer workers, rebuilds
// the node programs locally, and executes runs with the same shard
// executor the loopback cluster uses.  One Worker serves any number of
// sessions; runs within a session are serialized (the coordinator
// drives one at a time), runs across sessions proceed concurrently.
//
// Shutdown is graceful: a draining worker rejects new runs with
// ErrWorkerDraining but finishes in-flight rounds and flushes its
// final halo frames, mirroring the HTTP server's connection drain.
type Worker struct {
	// FrameTimeout bounds barrier waits and frame writes; zero means
	// the default.
	FrameTimeout time.Duration

	// ConnHook, when set before Serve, wraps every connection the
	// worker accepts or dials — the fault-injection seam.
	ConnHook func(net.Conn) net.Conn

	// Logger, when set before Serve, receives session and run
	// lifecycle events with run_id/generation fields, so a fleet-wide
	// log grep on one run ID reconstructs the whole request.
	Logger *slog.Logger

	mx        Metrics
	ln        net.Listener
	genSwaps  atomic.Int64
	phaseHist *obs.HistogramVec // set by RegisterMetrics

	mu       sync.Mutex
	sessions map[uint64]*wsession
	pending  map[uint64][]*peerConn  // peer conns that arrived before their session's setup
	ctrls    map[*frameConn]struct{} // live coordinator control connections
	draining bool
	closed   bool

	runs sync.WaitGroup // in-flight runs, for the drain
	wg   sync.WaitGroup // connection handlers
}

// log emits one structured lifecycle event if a Logger is configured.
func (w *Worker) log(msg string, args ...any) {
	if w.Logger != nil {
		w.Logger.Info(msg, args...)
	}
}

type peerConn struct {
	src int32
	gen uint64 // install generation the dialing peer holds
	fc  *frameConn
}

// NewWorker returns an idle worker; call Listen then Serve.
func NewWorker() *Worker {
	return &Worker{
		FrameTimeout: defaultFrameTimeout,
		sessions:     make(map[uint64]*wsession),
		pending:      make(map[uint64][]*peerConn),
		ctrls:        make(map[*frameConn]struct{}),
	}
}

// Metrics exposes the worker's transport counters.
func (w *Worker) Metrics() *Metrics { return &w.mx }

// RegisterMetrics exposes the worker's telemetry surface on an obs
// registry — the shared transport families plus worker-specific ones:
// per-shard round phase histograms (fed by the run tracer), scrape-
// time staging occupancy, installed sessions, and generation swaps.
// Call once, before Serve.
func (w *Worker) RegisterMetrics(reg *obs.Registry) {
	w.mx.Register(reg)
	w.phaseHist = reg.HistogramVec("anoncover_worker_round_phase_seconds",
		"Per-round shard phase timings (compute, serialize, wait, send).",
		obs.ExpBuckets(1e-6, 4, 12), "shard", "phase")
	reg.GaugeFuncs("anoncover_worker_sessions",
		"Sessions currently installed on this worker.").
		Add(func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return float64(len(w.sessions))
		})
	reg.GaugeFuncs("anoncover_worker_staging_occupancy",
		"Halo segments staged ahead of the consumer across active runs.").
		Add(func() float64 { return float64(w.stagingOccupancy()) })
	reg.CounterFuncs("anoncover_worker_generation_swaps_total",
		"Sessions replaced in place by a newer install generation.").
		Add(func() float64 { return float64(w.genSwaps.Load()) })
}

// stagingOccupancy counts, across every active run, incoming segments
// whose next round has already arrived but not yet been consumed — a
// persistent non-zero reading means this worker is the fleet's
// straggler (its peers run ahead of it).
func (w *Worker) stagingOccupancy() int {
	w.mu.Lock()
	sessions := make([]*wsession, 0, len(w.sessions))
	for _, s := range w.sessions {
		sessions = append(sessions, s)
	}
	w.mu.Unlock()
	occ := 0
	for _, s := range sessions {
		s.mu.Lock()
		st := s.actStage
		s.mu.Unlock()
		if st == nil {
			continue
		}
		st.mu.Lock()
		for _, a := range st.arrived {
			if a > st.consumed {
				occ++
			}
		}
		st.mu.Unlock()
	}
	return occ
}

// Listen binds the worker's frame listener.
func (w *Worker) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	w.ln = ln
	return nil
}

// Addr returns the bound listen address.
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Serve accepts connections until the listener closes.  Each
// connection self-identifies with its first frame: fHello starts a
// coordinator control loop, fPeerHello attaches a peer data stream to
// a session.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			stopping := w.closed || w.draining
			w.mu.Unlock()
			if stopping {
				// The listener went away as part of an orderly drain or
				// close: that is success, not an accept failure.
				return nil
			}
			return err
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(conn)
		}()
	}
}

// Shutdown drains the worker: new runs are rejected, in-flight runs
// finish (their final halo frames flush as part of the run), then all
// connections close.  Returns ctx.Err() if the drain outlives the
// context; the worker is closed regardless.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()

	done := make(chan struct{})
	go func() {
		w.runs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	w.Close()
	return err
}

// Close tears the worker down immediately.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	sessions := w.sessions
	w.sessions = make(map[uint64]*wsession)
	pend := w.pending
	w.pending = make(map[uint64][]*peerConn)
	ctrls := w.ctrls
	w.ctrls = make(map[*frameConn]struct{})
	w.mu.Unlock()

	if w.ln != nil {
		w.ln.Close()
	}
	// Sever coordinator control connections too: a dead process drops
	// its sockets, and the coordinator's rejoin detection (connection
	// epochs) relies on seeing this one die.
	for fc := range ctrls {
		fc.close()
	}
	for _, s := range sessions {
		s.teardown(errors.New("dist: worker closed"))
	}
	for _, pcs := range pend {
		for _, pc := range pcs {
			pc.fc.close()
		}
	}
	return nil
}

func (w *Worker) handleConn(conn net.Conn) {
	if w.ConnHook != nil {
		conn = w.ConnHook(conn)
	}
	fc := newFrameConn(conn, w.FrameTimeout, &w.mx)
	first, err := fc.readTimeout(w.FrameTimeout)
	if err != nil {
		fc.close()
		return
	}
	switch first.typ {
	case fHello:
		w.controlLoop(fc)
	case fPeerHello:
		w.attachPeer(fc, &first)
	default:
		fc.close()
	}
}

// attachPeer hands an incoming peer data connection to its session,
// parking it if the session's setup — at the hello's install
// generation — has not arrived yet.  A hello from a stale generation
// (this worker already reinstalled past it) is dropped; the dialing
// peer is itself about to be reinstalled and will dial again.
func (w *Worker) attachPeer(fc *frameConn, hello *frame) {
	if len(hello.payload) != 16 {
		fc.close()
		return
	}
	session := binary.LittleEndian.Uint64(hello.payload)
	gen := binary.LittleEndian.Uint64(hello.payload[8:])
	pc := &peerConn{src: int32(hello.src), gen: gen, fc: fc}

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		fc.close()
		return
	}
	s := w.sessions[session]
	if s == nil || gen > s.plan.Gen {
		w.pending[session] = append(w.pending[session], pc)
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	if gen < s.plan.Gen {
		fc.close()
		return
	}
	s.addPeer(pc)
}

// controlLoop serves one coordinator connection.
func (w *Worker) controlLoop(fc *frameConn) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		fc.close()
		return
	}
	w.ctrls[fc] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.ctrls, fc)
		w.mu.Unlock()
		fc.close()
	}()
	for {
		f, err := fc.read()
		if err != nil {
			return
		}
		switch f.typ {
		case fPing:
			fc.write(&frame{typ: fPong, run: f.run})
		case fSetup:
			w.handleSetup(fc, &f)
		case fStart:
			// A prepare can wait up to the frame timeout for peers to
			// dial; a peer that restarted without the session never
			// will.  Waiting off the loop keeps pings, aborts and the
			// re-install that ends the wait answerable meanwhile.  The
			// session is resolved here, in frame order, so a later
			// re-install cannot swap it under the waiting prepare.
			s, spec := w.startSession(fc, &f)
			if s == nil {
				continue
			}
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				if err := s.prepare(f.run, spec); err != nil {
					sendErr(fc, f.run, errorCode(err), err.Error())
					return
				}
				fc.write(&frame{typ: fReady, run: f.run})
			}()
		case fGo:
			w.handleGo(fc, &f)
		case fAbort:
			w.handleAbort(&f)
		case fWeights:
			w.handleWeights(fc, &f)
		case fClose:
			w.handleClose(fc, &f)
		default:
			sendErr(fc, f.run, ecBadRequest, fmt.Sprintf("unexpected %d frame on a control connection", f.typ))
		}
	}
}

func sendErr(fc *frameConn, nonce uint32, code byte, text string) {
	fc.write(&frame{typ: fError, run: nonce, payload: append([]byte{code}, text...)})
}

func (w *Worker) handleSetup(fc *frameConn, f *frame) {
	var plan WorkerPlan
	if err := gob.NewDecoder(bytes.NewReader(f.payload)).Decode(&plan); err != nil {
		sendErr(fc, f.run, ecBadRequest, "undecodable plan: "+err.Error())
		return
	}
	if err := plan.validate(); err != nil {
		sendErr(fc, f.run, ecBadRequest, err.Error())
		return
	}
	if _, ok := algos[plan.Algo]; !ok {
		sendErr(fc, f.run, ecBadRequest, "unknown algorithm "+plan.Algo)
		return
	}
	s := &wsession{
		w:       w,
		plan:    plan,
		weights: append([]int64(nil), plan.Weights...),
		params:  plan.Params,
		peers:   make(map[int32]*frameConn),
		peerOK:  make(chan struct{}, 1),
	}

	w.mu.Lock()
	if w.closed || w.draining {
		w.mu.Unlock()
		sendErr(fc, f.run, ecDraining, "worker is draining")
		return
	}
	if old := w.sessions[plan.Session]; old != nil {
		switch {
		case plan.Gen < old.plan.Gen:
			w.mu.Unlock()
			sendErr(fc, f.run, ecBadRequest, "stale session generation")
			return
		case plan.Gen == old.plan.Gen:
			// The coordinator retransmitted an install we already hold
			// — a retry whose ack was lost, or a fleet-wide re-ship
			// after another worker restarted.  Ack idempotently.
			w.mu.Unlock()
			fc.write(&frame{typ: fReady, run: f.run})
			return
		default:
			// Newer generation: replace the session wholesale.  Peer
			// connections are per-generation (the hello carries it), so
			// the old mesh is torn down and redialed.
			delete(w.sessions, plan.Session)
			w.mu.Unlock()
			old.teardown(errors.New("dist: session reinstalled at a newer generation"))
			w.genSwaps.Add(1)
			w.log("session generation swap",
				"session", plan.Session, "shard", plan.Self,
				"generation", plan.Gen, "old_generation", old.plan.Gen)
			w.mu.Lock()
			if w.closed || w.draining {
				w.mu.Unlock()
				sendErr(fc, f.run, ecDraining, "worker is draining")
				return
			}
		}
	}
	w.sessions[plan.Session] = s
	parked := w.pending[plan.Session]
	delete(w.pending, plan.Session)
	w.mu.Unlock()

	for _, pc := range parked {
		switch {
		case pc.gen == plan.Gen:
			s.addPeer(pc)
		case pc.gen > plan.Gen:
			// A peer already installed a future generation; park the
			// conn again for the re-ship that is on its way here.
			w.mu.Lock()
			w.pending[plan.Session] = append(w.pending[plan.Session], pc)
			w.mu.Unlock()
		default:
			pc.fc.close()
		}
	}
	// Dial the higher-numbered peers this shard exchanges frames with;
	// lower-numbered ones dial us.
	for _, peer := range peerSet(&s.plan.Shard) {
		if peer < plan.Self {
			continue
		}
		if err := s.dialPeer(peer); err != nil {
			sendErr(fc, f.run, ecInternal, err.Error())
			w.dropSession(plan.Session, err)
			return
		}
	}
	w.log("session installed",
		"session", plan.Session, "shard", plan.Self,
		"generation", plan.Gen, "workers", plan.Workers, "algo", plan.Algo)
	fc.write(&frame{typ: fReady, run: f.run})
}

func (w *Worker) session(id uint64) *wsession {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sessions[id]
}

func (w *Worker) dropSession(id uint64, reason error) {
	w.mu.Lock()
	s := w.sessions[id]
	delete(w.sessions, id)
	w.mu.Unlock()
	if s != nil {
		s.teardown(reason)
	}
}

// startPayload decodes the 8-byte session prefix + gob StartSpec the
// coordinator packs into fStart and fGo payloads.
func startPayload(f *frame) (uint64, *StartSpec, error) {
	if len(f.payload) < 8 {
		return 0, nil, errors.New("short payload")
	}
	session := binary.LittleEndian.Uint64(f.payload)
	if len(f.payload) == 8 {
		return session, nil, nil
	}
	var spec StartSpec
	if err := gob.NewDecoder(bytes.NewReader(f.payload[8:])).Decode(&spec); err != nil {
		return 0, nil, err
	}
	return session, &spec, nil
}

// startSession decodes a start frame and resolves its session, or
// answers the frame with an error and returns nil.  A start prepares a
// run (wsession.prepare: fresh programs, fresh staging, peers verified)
// but does not execute it until fGo, so no peer can be mid-round before
// every staging buffer in the fleet exists.
func (w *Worker) startSession(fc *frameConn, f *frame) (*wsession, *StartSpec) {
	session, spec, err := startPayload(f)
	if err != nil || spec == nil {
		sendErr(fc, f.run, ecBadRequest, "undecodable start")
		return nil, nil
	}
	s := w.session(session)
	if s == nil {
		sendErr(fc, f.run, ecBadRequest, "unknown session")
		return nil, nil
	}
	w.mu.Lock()
	draining := w.draining || w.closed
	w.mu.Unlock()
	if draining {
		sendErr(fc, f.run, ecDraining, "worker is draining")
		return nil, nil
	}
	return s, spec
}

func (w *Worker) handleGo(fc *frameConn, f *frame) {
	session, _, err := startPayload(f)
	if err != nil {
		sendErr(fc, f.run, ecBadRequest, "undecodable go")
		return
	}
	s := w.session(session)
	if s == nil {
		sendErr(fc, f.run, ecBadRequest, "unknown session")
		return
	}
	s.launch(fc, f.run)
}

func (w *Worker) handleAbort(f *frame) {
	if len(f.payload) != 8 {
		return
	}
	s := w.session(binary.LittleEndian.Uint64(f.payload))
	if s == nil {
		return
	}
	s.abort(f.run)
}

func (w *Worker) handleWeights(fc *frameConn, f *frame) {
	if len(f.payload) < 8 {
		sendErr(fc, f.run, ecBadRequest, "short weights payload")
		return
	}
	s := w.session(binary.LittleEndian.Uint64(f.payload))
	if s == nil {
		sendErr(fc, f.run, ecBadRequest, "unknown session")
		return
	}
	var msg weightsMsg
	if err := gob.NewDecoder(bytes.NewReader(f.payload[8:])).Decode(&msg); err != nil {
		sendErr(fc, f.run, ecBadRequest, "undecodable weights: "+err.Error())
		return
	}
	if err := s.updateWeights(&msg); err != nil {
		sendErr(fc, f.run, ecBadRequest, err.Error())
		return
	}
	fc.write(&frame{typ: fWeightsOK, run: f.run})
}

func (w *Worker) handleClose(fc *frameConn, f *frame) {
	if len(f.payload) != 8 {
		sendErr(fc, f.run, ecBadRequest, "short close payload")
		return
	}
	w.dropSession(binary.LittleEndian.Uint64(f.payload),
		errors.New("dist: session closed by coordinator"))
	fc.write(&frame{typ: fReady, run: f.run})
}

// wsession is one installed session on a worker.
type wsession struct {
	w      *Worker
	plan   WorkerPlan
	peerOK chan struct{} // pulsed when a peer attaches or the session is torn down
	prep   sync.Mutex    // serializes prepares (a retried fStart waits for the first)

	mu        sync.Mutex
	weights   []int64
	params    sim.Params
	peers     map[int32]*frameConn
	torn      error
	actRun    uint32
	actTag    string // log identity of the active run
	actStage  *staging
	actRS     *runState
	actExec   *shardExec
	actCancel context.CancelFunc
	running   bool
}

func (s *wsession) addPeer(pc *peerConn) {
	s.mu.Lock()
	if s.torn != nil {
		s.mu.Unlock()
		pc.fc.close()
		return
	}
	if old := s.peers[pc.src]; old != nil {
		old.close()
	}
	s.peers[pc.src] = pc.fc
	s.mu.Unlock()
	select {
	case s.peerOK <- struct{}{}:
	default:
	}
	s.w.wg.Add(1)
	go func() {
		defer s.w.wg.Done()
		s.peerReadLoop(pc.src, pc.fc)
	}()
}

func (s *wsession) dialPeer(peer int32) error {
	addr := s.plan.Peers[peer]
	conn, err := net.DialTimeout("tcp", addr, s.w.FrameTimeout)
	if err != nil {
		return fmt.Errorf("dist: shard %d dialing peer %d at %s: %w", s.plan.Self, peer, addr, err)
	}
	if s.w.ConnHook != nil {
		conn = s.w.ConnHook(conn)
	}
	fc := newFrameConn(conn, s.w.FrameTimeout, &s.w.mx)
	var hello [16]byte
	binary.LittleEndian.PutUint64(hello[:], s.plan.Session)
	binary.LittleEndian.PutUint64(hello[8:], s.plan.Gen)
	if err := fc.write(&frame{typ: fPeerHello, src: uint16(s.plan.Self), dst: uint16(peer), payload: hello[:]}); err != nil {
		fc.close()
		return fmt.Errorf("dist: peer hello to %d: %w", peer, err)
	}
	s.addPeer(&peerConn{src: peer, gen: s.plan.Gen, fc: fc})
	return nil
}

// peerReadLoop drains one peer connection for the session's lifetime,
// delivering data frames to whichever run is active.
func (s *wsession) peerReadLoop(peer int32, fc *frameConn) {
	for {
		f, err := fc.read()
		if err != nil {
			s.mu.Lock()
			rs := s.actRS
			torn := s.torn
			live := s.peers[peer] == fc
			if live {
				// Forget the dead connection so waitPeers blocks for a
				// replacement instead of trusting a corpse.
				delete(s.peers, peer)
			}
			s.mu.Unlock()
			if torn == nil && live && rs != nil {
				rs.fail(fmt.Errorf("dist: shard %d lost peer %d: %w", s.plan.Self, peer, err), prioIO)
			}
			return
		}
		if f.typ != fLanes && f.typ != fBoxed {
			continue
		}
		s.mu.Lock()
		run, stage, rs, exec := s.actRun, s.actStage, s.actRS, s.actExec
		s.mu.Unlock()
		if stage == nil || f.run != run {
			s.w.mx.StaleDrops.Add(1)
			continue
		}
		if rs.closed() {
			continue
		}
		si, ok := exec.segOf(peer)
		if !ok || int32(f.src) != peer {
			rs.fail(fmt.Errorf("%w: data frame from shard %d on the peer-%d stream", ErrBadFrame, f.src, peer), prioIO)
			continue
		}
		if err := stage.deliver(si, &f); err != nil {
			rs.fail(err, prioIO)
		}
	}
}

// waitPeers blocks until every expected peer connection is attached.
func (s *wsession) waitPeers(deadline time.Time) error {
	want := peerSet(&s.plan.Shard)
	for {
		s.mu.Lock()
		missing := int32(-1)
		for _, p := range want {
			if s.peers[p] == nil {
				missing = p
				break
			}
		}
		torn := s.torn
		s.mu.Unlock()
		if torn != nil {
			return torn
		}
		if missing < 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("dist: shard %d still waiting for peer %d", s.plan.Self, missing)
		}
		select {
		case <-s.peerOK:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// prepare installs a fresh run: programs rebuilt from the current
// weights, staging reset, peers verified.
func (s *wsession) prepare(run uint32, spec *StartSpec) error {
	s.prep.Lock()
	defer s.prep.Unlock()
	// Heal the mesh first: re-dial any higher-numbered peer whose
	// connection died since the last run; lower-numbered peers re-dial
	// us from their own prepare by the same rule.
	for _, peer := range peerSet(&s.plan.Shard) {
		if peer < s.plan.Self {
			continue
		}
		s.mu.Lock()
		have := s.peers[peer] != nil
		s.mu.Unlock()
		if !have {
			if err := s.dialPeer(peer); err != nil {
				return err
			}
		}
	}
	if err := s.waitPeers(time.Now().Add(s.w.FrameTimeout)); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn != nil {
		return s.torn
	}
	if s.running {
		return errors.New("dist: session already has a run in flight")
	}
	port, bcast, err := buildPrograms(&s.plan, s.weights, s.params)
	if err != nil {
		return err
	}
	var ctx context.Context = context.Background()
	var cancel context.CancelFunc
	if spec.DeadlineMillis > 0 {
		ctx, cancel = context.WithDeadline(context.Background(),
			time.Now().Add(time.Duration(spec.DeadlineMillis)*time.Millisecond))
	}
	s.actCancel = cancel

	rs := newRunState()
	stage := newStaging(len(s.plan.Shard.In))
	waits := make([]*PairWait, len(s.plan.Shard.In))
	for si, in := range s.plan.Shard.In {
		waits[si] = s.w.mx.pairWait(in.Src, s.plan.Self)
	}
	peers := make(map[int32]*frameConn, len(s.peers))
	for id, fc := range s.peers {
		peers[id] = fc
	}
	exec := &shardExec{
		id:    s.plan.Self,
		sh:    &s.plan.Shard,
		peers: peers,
		runID: run,

		port:  port,
		bcast: bcast,

		rounds:       spec.Rounds,
		noWire:       spec.NoWire,
		scrambleSeed: spec.ScrambleSeed,
		budget:       spec.RoundBudget,
		ctx:          ctx,
		timeout:      s.w.FrameTimeout,

		stage: stage,
		rs:    rs,
		mx:    &s.w.mx,
		waits: waits,
	}
	if !spec.TraceOff {
		exec.trace = obs.NewShardTrace(s.plan.Self, spec.Rounds, spec.TraceEvery)
		if hv := s.w.phaseHist; hv != nil {
			sh := itoa(s.plan.Self)
			exec.hCompute = hv.With(sh, "compute")
			exec.hSerialize = hv.With(sh, "serialize")
			exec.hWait = hv.With(sh, "wait")
			exec.hSend = hv.With(sh, "send")
		}
	}
	s.actRun, s.actStage, s.actRS, s.actExec, s.actTag = run, stage, rs, exec, runTag(spec.Tag, run)
	s.w.log("run prepared",
		"run_id", s.actTag, "session", s.plan.Session, "shard", s.plan.Self,
		"generation", s.plan.Gen, "rounds", spec.Rounds, "trace", !spec.TraceOff)
	return nil
}

// runTag is the log identity of a run: the serving layer's run ID when
// the coordinator threaded one through, the run nonce otherwise.
func runTag(tag string, run uint32) string {
	if tag != "" {
		return tag
	}
	return fmt.Sprintf("run-%d", run)
}

// segOf maps a source shard to its In-segment index.
func (e *shardExec) segOf(src int32) (int, bool) {
	for si := range e.sh.In {
		if e.sh.In[si].Src == src {
			return si, true
		}
	}
	return 0, false
}

// launch executes the prepared run on its own goroutine and reports
// the outcome on the control connection the go frame arrived over.
func (s *wsession) launch(ctrl *frameConn, run uint32) {
	s.mu.Lock()
	exec := s.actExec
	if exec == nil || s.actRun != run || s.running {
		s.mu.Unlock()
		sendErr(ctrl, run, ecBadRequest, "go without a prepared run")
		return
	}
	s.running = true
	s.mu.Unlock()

	s.w.runs.Add(1)
	s.w.wg.Add(1)
	go func() {
		defer s.w.wg.Done()
		defer s.w.runs.Done()
		err := s.execute(exec)
		s.mu.Lock()
		s.running = false
		tag := s.actTag
		cancel := s.actCancel
		s.actExec, s.actStage, s.actRS, s.actCancel = nil, nil, nil, nil
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		if err != nil {
			s.w.mx.RunErrors.Add(1)
			s.w.log("run failed",
				"run_id", tag, "session", s.plan.Session, "shard", s.plan.Self,
				"generation", s.plan.Gen, "error", err.Error())
			// The partial trace still matters — it shows where the run
			// was when it died — but fOutputs will never carry it, so
			// ship it on its own frame ahead of the error verdict.
			if exec.trace != nil {
				var tb bytes.Buffer
				if gob.NewEncoder(&tb).Encode(exec.trace.Spans(true)) == nil {
					ctrl.write(&frame{typ: fTrace, src: uint16(s.plan.Self),
						run: run, payload: tb.Bytes()})
				}
			}
			sendErr(ctrl, run, errorCode(err), err.Error())
			return
		}
		s.w.log("run finished",
			"run_id", tag, "session", s.plan.Session, "shard", s.plan.Self,
			"generation", s.plan.Gen, "rounds", exec.rounds)
		outs := make([]any, len(exec.sh.Nodes))
		if exec.port != nil {
			for i, p := range exec.port {
				outs[i] = p.Output()
			}
		} else {
			for i, p := range exec.bcast {
				outs[i] = p.Output()
			}
		}
		om := outputsMsg{
			Rounds: exec.rounds, Messages: exec.msgs, Bytes: exec.bytes, Outs: outs,
		}
		if exec.trace != nil {
			om.Trace = *exec.trace.Spans(false)
			om.HasTrace = true
		}
		var buf bytes.Buffer
		if gerr := gob.NewEncoder(&buf).Encode(&om); gerr != nil {
			sendErr(ctrl, run, ecInternal, "encoding outputs: "+gerr.Error())
			return
		}
		ctrl.write(&frame{typ: fOutputs, run: run, payload: buf.Bytes()})
	}()
}

// execute runs the shard, recovering program panics into run errors so
// a bad plan cannot take the worker process down.
func (s *wsession) execute(exec *shardExec) (err error) {
	s.w.mx.Runs.Add(1)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("dist: shard %d panicked: %v", s.plan.Self, p)
			exec.rs.fail(err, prioSemantic)
		}
	}()
	return exec.run()
}

func (s *wsession) abort(run uint32) {
	s.mu.Lock()
	rs := s.actRS
	match := s.actRun == run
	s.mu.Unlock()
	if rs != nil && match {
		rs.fail(errAborted, prioIO)
	}
}

func (s *wsession) updateWeights(msg *weightsMsg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn != nil {
		return s.torn
	}
	if s.running {
		return errors.New("dist: weight update during a run")
	}
	if len(msg.Weights) != len(s.plan.Shard.Nodes) {
		return fmt.Errorf("dist: %d weights for %d nodes", len(msg.Weights), len(s.plan.Shard.Nodes))
	}
	s.weights = append(s.weights[:0], msg.Weights...)
	s.params = msg.Params
	return nil
}

func (s *wsession) teardown(reason error) {
	s.mu.Lock()
	if s.torn != nil {
		s.mu.Unlock()
		return
	}
	s.torn = reason
	rs := s.actRS
	peers := s.peers
	s.peers = map[int32]*frameConn{}
	s.mu.Unlock()
	select {
	case s.peerOK <- struct{}{}: // end a waitPeers now
	default:
	}
	if rs != nil {
		rs.fail(reason, prioIO)
	}
	for _, fc := range peers {
		fc.close()
	}
}
