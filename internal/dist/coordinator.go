package dist

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anoncover/internal/core/edgepack"
	"anoncover/internal/graph"
	"anoncover/internal/obs"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// Coordinator owns the partition and the request lifecycle of the
// remote deployment: it compiles an instance into per-worker plans,
// installs them as a session across the worker fleet, and drives runs
// — prepare, go, collect — over persistent control connections.  Data
// never touches the coordinator: workers exchange halo frames
// directly.
type Coordinator struct {
	// FrameTimeout bounds control-frame round trips and is the
	// workers' barrier-wait bound; zero means the default.
	FrameTimeout time.Duration

	// ConnHook, when set before the first dial, wraps every control
	// connection the coordinator opens — the fault-injection seam.
	ConnHook func(net.Conn) net.Conn

	addrs   []string
	mx      Metrics
	nonce   atomic.Uint32
	dialSeq atomic.Uint64 // control-connection epochs, see ctrlConn

	mu       sync.Mutex
	ctrls    []*ctrlConn // lazily dialed, index-aligned with addrs
	sessions map[uint64]*Session
	closed   bool

	probeMu    sync.Mutex
	probeStop  chan struct{}
	probeWG    sync.WaitGroup
	lastHealth []WorkerHealth
	lastProbe  time.Time
}

// NewCoordinator returns a coordinator over the given worker listen
// addresses.  Connections are dialed lazily on first use.
func NewCoordinator(addrs []string) *Coordinator {
	c := &Coordinator{
		FrameTimeout: defaultFrameTimeout,
		addrs:        append([]string(nil), addrs...),
	}
	c.ctrls = make([]*ctrlConn, len(c.addrs))
	c.sessions = make(map[uint64]*Session)
	return c
}

// Metrics exposes the coordinator's transport counters.
func (c *Coordinator) Metrics() *Metrics { return &c.mx }

// Workers returns the configured worker addresses.
func (c *Coordinator) Workers() []string { return append([]string(nil), c.addrs...) }

// Close stops the background prober and drops every control
// connection.
func (c *Coordinator) Close() error {
	c.StopProbes()
	c.mu.Lock()
	c.closed = true
	ctrls := c.ctrls
	c.ctrls = make([]*ctrlConn, len(c.addrs))
	c.mu.Unlock()
	for _, cc := range ctrls {
		if cc != nil {
			cc.shutdown(errors.New("dist: coordinator closed"))
		}
	}
	return nil
}

// ctrlConn is one control connection with nonce-routed request
// multiplexing: every request frame carries a nonce in its run field,
// the worker echoes it, and a reader goroutine routes responses to the
// waiting caller — so pings can interleave with a multi-second run on
// the same connection.
type ctrlConn struct {
	addr string
	fc   *frameConn
	// epoch is a coordinator-wide dial sequence number.  A session
	// records the epoch its plan was installed through; a later, higher
	// epoch on the same worker index means the connection was redialed
	// — the worker may have restarted — so the plan must be re-shipped
	// before the next run.
	epoch uint64

	mu      sync.Mutex
	pending map[uint32]chan frame
	dead    error
}

func (cc *ctrlConn) shutdown(reason error) {
	cc.mu.Lock()
	if cc.dead == nil {
		cc.dead = reason
	}
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	cc.fc.close()
	for _, ch := range pending {
		close(ch)
	}
}

func (cc *ctrlConn) readLoop() {
	for {
		f, err := cc.fc.read()
		if err != nil {
			cc.shutdown(fmt.Errorf("dist: control connection to %s: %w", cc.addr, err))
			return
		}
		cc.mu.Lock()
		ch := cc.pending[f.run]
		cc.mu.Unlock()
		if ch != nil {
			select {
			case ch <- f:
			default:
			}
		}
	}
}

func (cc *ctrlConn) register(nonce uint32) (chan frame, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead != nil {
		return nil, cc.dead
	}
	ch := make(chan frame, 4)
	cc.pending[nonce] = ch
	return ch, nil
}

func (cc *ctrlConn) unregister(nonce uint32) {
	cc.mu.Lock()
	delete(cc.pending, nonce)
	cc.mu.Unlock()
}

// await blocks for the next response frame carrying nonce.
func (cc *ctrlConn) await(ch chan frame, ctx context.Context, timeout time.Duration) (frame, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case f, ok := <-ch:
		if !ok {
			cc.mu.Lock()
			err := cc.dead
			cc.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("dist: control connection to %s lost", cc.addr)
			}
			return frame{}, err
		}
		return f, nil
	case <-done:
		return frame{}, ctx.Err()
	case <-timer:
		return frame{}, fmt.Errorf("dist: worker %s did not respond within %v", cc.addr, timeout)
	}
}

// ctrl returns worker i's control connection, dialing on first use or
// after a failure.
func (c *Coordinator) ctrl(i int) (*ctrlConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("dist: coordinator closed")
	}
	if cc := c.ctrls[i]; cc != nil {
		cc.mu.Lock()
		dead := cc.dead
		cc.mu.Unlock()
		if dead == nil {
			c.mu.Unlock()
			return cc, nil
		}
		c.ctrls[i] = nil
	}
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addrs[i], c.timeout())
	if err != nil {
		return nil, fmt.Errorf("dist: dialing worker %s: %w", c.addrs[i], err)
	}
	if c.ConnHook != nil {
		conn = c.ConnHook(conn)
	}
	fc := newFrameConn(conn, c.timeout(), &c.mx)
	if err := fc.write(&frame{typ: fHello}); err != nil {
		fc.close()
		return nil, fmt.Errorf("dist: hello to worker %s: %w", c.addrs[i], err)
	}
	cc := &ctrlConn{addr: c.addrs[i], fc: fc, epoch: c.dialSeq.Add(1),
		pending: make(map[uint32]chan frame)}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fc.close()
		return nil, errors.New("dist: coordinator closed")
	}
	if prev := c.ctrls[i]; prev != nil {
		// Lost a dial race; use the winner.
		c.mu.Unlock()
		fc.close()
		return prev, nil
	}
	c.ctrls[i] = cc
	c.mu.Unlock()
	go cc.readLoop()
	return cc, nil
}

func (c *Coordinator) timeout() time.Duration {
	if c.FrameTimeout > 0 {
		return c.FrameTimeout
	}
	return defaultFrameTimeout
}

// requestOn sends one frame over an already-established control
// connection and awaits its echo-nonce reply.
func (c *Coordinator) requestOn(ctx context.Context, cc *ctrlConn, f *frame, timeout time.Duration) (frame, error) {
	ch, err := cc.register(f.run)
	if err != nil {
		return frame{}, err
	}
	defer cc.unregister(f.run)
	if err := cc.fc.write(f); err != nil {
		cc.shutdown(err)
		return frame{}, fmt.Errorf("dist: writing to worker %s: %w", cc.addr, err)
	}
	return cc.await(ch, ctx, timeout)
}

// request sends one frame to worker i and awaits its echo-nonce reply.
func (c *Coordinator) request(ctx context.Context, i int, f *frame, timeout time.Duration) (frame, error) {
	cc, err := c.ctrl(i)
	if err != nil {
		return frame{}, err
	}
	return c.requestOn(ctx, cc, f, timeout)
}

// retryAttempts is the total number of tries for a retryable control
// request (1 initial + 2 retries).  Backoff is capped exponential with
// ±50% jitter, small enough that a dead fleet still fails requests
// promptly.
const retryAttempts = 3

// backoffSleep waits out the capped exponential backoff before retry
// attempt a (0-based), honoring ctx.
func backoffSleep(ctx context.Context, a int) error {
	d := 25 * time.Millisecond << a
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	d = d/2 + time.Duration(mrand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-t.C:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// ctrlRetry dials worker i's control connection, retrying transient
// dial failures with backoff.
func (c *Coordinator) ctrlRetry(ctx context.Context, i int) (*ctrlConn, error) {
	var cc *ctrlConn
	var err error
	for a := 0; a < retryAttempts; a++ {
		if a > 0 {
			c.mx.Retries.Add(1)
			if serr := backoffSleep(ctx, a-1); serr != nil {
				return nil, serr
			}
		}
		cc, err = c.ctrl(i)
		if err == nil {
			return cc, nil
		}
		if !transientErr(err) {
			break
		}
	}
	return nil, err
}

// requestRetry sends a control frame to worker i, retrying transient
// failures (dead dial, broken connection, crashed worker) with capped
// backoff and re-dialing between attempts.  It returns the reply and
// the epoch of the connection it succeeded on, so callers installing
// state can later detect a redial.  Only idempotent frames may use it:
// fSetup, fStart (pre-launch prepare), fWeights, fPing — never fGo.
func (c *Coordinator) requestRetry(ctx context.Context, i int, f *frame, timeout time.Duration, want byte) (frame, uint64, error) {
	var lastErr error
	for a := 0; a < retryAttempts; a++ {
		if a > 0 {
			c.mx.Retries.Add(1)
			if serr := backoffSleep(ctx, a-1); serr != nil {
				return frame{}, 0, serr
			}
		}
		cc, err := c.ctrl(i)
		if err == nil {
			var reply frame
			reply, err = c.requestOn(ctx, cc, f, timeout)
			if err == nil {
				err = ackError(&reply, want)
			}
			if err == nil {
				return reply, cc.epoch, nil
			}
		}
		lastErr = err
		if !transientErr(err) {
			break
		}
	}
	return frame{}, 0, lastErr
}

// WorkerHealth is one worker's liveness snapshot.
type WorkerHealth struct {
	Addr  string        `json:"addr"`
	OK    bool          `json:"ok"`
	RTT   time.Duration `json:"rtt_nanos"`
	Error string        `json:"error,omitempty"`
}

// Health pings every worker concurrently.
func (c *Coordinator) Health(ctx context.Context) []WorkerHealth {
	out := make([]WorkerHealth, len(c.addrs))
	var wg sync.WaitGroup
	for i := range c.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Addr = c.addrs[i]
			start := time.Now()
			f, err := c.request(ctx, i, &frame{typ: fPing, run: c.nonce.Add(1)}, c.timeout())
			if err == nil && f.typ != fPong {
				err = fmt.Errorf("dist: unexpected %d reply to ping", f.typ)
			}
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			out[i].OK = true
			out[i].RTT = time.Since(start)
		}(i)
	}
	wg.Wait()
	return out
}

// Session is one compiled instance installed across the worker fleet.
// Runs are serialized per session; UpdateWeights swaps the weight
// assignment between runs without re-planning, which is the
// distributed face of the serving layer's snapshot machinery.
type Session struct {
	c        *Coordinator
	id       uint64
	algoName string
	algo     algoDef
	k        int
	nodes    [][]int32 // per worker, owned global node ids
	n        int
	g        *graph.G // set by CompileVC, for result assembly

	// insMu serializes (re-)installs.  plans caches each worker's
	// setup message so a reconnecting worker gets its shard back
	// without a recompile; epochs records the control-connection epoch
	// each plan was shipped through, and gen stamps every install so
	// workers can tell a re-ship from a stale duplicate.
	insMu  sync.Mutex
	plans  []*WorkerPlan
	epochs []uint64
	gen    uint64

	mu        sync.Mutex
	params    sim.Params
	closed    bool
	lastTrace *obs.RunTrace
}

// RunOptions are the per-run knobs; the zero value is the default
// (wire path, no scramble, no budget, tracing on at round
// granularity).
type RunOptions struct {
	NoWire       bool
	ScrambleSeed int64
	RoundBudget  int
	// TraceOff disables per-round phase tracing; TraceEvery > 1
	// samples every n-th round instead of all of them.
	TraceOff   bool
	TraceEvery int
	// Tag names the run in worker logs and the merged trace —
	// typically the serving layer's run ID.
	Tag string
}

// RunResult is one distributed run's assembled outcome: node outputs
// in global node order plus engine-contract Stats, and — unless the
// run opted out — the merged per-shard phase trace.
type RunResult struct {
	Outs  []any
	Stats sim.Stats
	Trace *obs.RunTrace
}

// LastTrace returns the merged trace of the session's most recent
// traced run, including failed runs (whose traces are partial) —
// which RunResult can never carry.
func (s *Session) LastTrace() *obs.RunTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}

// Compile plans the topology across the fleet and installs the session
// on every worker: partition, per-worker routing, weights, kinds.  The
// effective shard count is min(workers, partitioner clamp); surplus
// workers are simply not part of the session.
func (c *Coordinator) Compile(algo string, top sim.Topology, weights []int64, kinds []uint8, params sim.Params) (*Session, error) {
	def, ok := algos[algo]
	if !ok {
		return nil, fmt.Errorf("dist: unknown algorithm %q", algo)
	}
	if len(c.addrs) == 0 {
		return nil, errors.New("dist: coordinator has no workers")
	}
	ft, err := flattenTop(top)
	if err != nil {
		return nil, err
	}
	n := ft.N()
	if len(weights) != n || len(kinds) != n {
		return nil, fmt.Errorf("dist: %d weights and %d kinds for %d nodes", len(weights), len(kinds), n)
	}
	st := shard.BuildK(ft, len(c.addrs))
	k := st.K()

	var idbuf [8]byte
	if _, err := rand.Read(idbuf[:]); err != nil {
		return nil, err
	}
	id := binary.LittleEndian.Uint64(idbuf[:])

	s := &Session{
		c: c, id: id, algoName: algo, algo: def,
		k: k, n: n, params: params,
		nodes:  make([][]int32, k),
		plans:  make([]*WorkerPlan, k),
		epochs: make([]uint64, k),
		gen:    1,
	}
	for w := 0; w < k; w++ {
		plan := &WorkerPlan{
			Session: id,
			Gen:     s.gen,
			Algo:    algo,
			Workers: k,
			Self:    int32(w),
			Peers:   c.addrs[:k],
			Params:  params,
			Shard:   *planFor(st, w),
		}
		s.nodes[w] = plan.Shard.Nodes
		plan.Weights = make([]int64, len(plan.Shard.Nodes))
		plan.Kinds = make([]uint8, len(plan.Shard.Nodes))
		for i, v := range plan.Shard.Nodes {
			plan.Weights[i] = weights[v]
			plan.Kinds[i] = kinds[v]
		}
		s.plans[w] = plan
	}
	if err := s.installAll(nil); err != nil {
		s.Close() // best-effort teardown of the workers that did install
		return nil, err
	}
	c.addSession(s)
	return s, nil
}

// encodePlan gob-encodes one worker's setup message.
func encodePlan(plan *WorkerPlan) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(plan); err != nil {
		return nil, fmt.Errorf("dist: encoding plan: %w", err)
	}
	return buf.Bytes(), nil
}

// installAll ships every cached plan to its worker concurrently, with
// transient-failure retry, and records the connection epochs the
// installs landed on.  Callers hold insMu or own the session
// exclusively (Compile).
func (s *Session) installAll(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, s.k)
	epochs := make([]uint64, s.k)
	for w := 0; w < s.k; w++ {
		payload, err := encodePlan(s.plans[w])
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(w int, payload []byte) {
			defer wg.Done()
			_, ep, err := s.c.requestRetry(ctx, w,
				&frame{typ: fSetup, run: s.c.nonce.Add(1), payload: payload},
				2*s.c.timeout(), fReady)
			errs[w], epochs[w] = err, ep
		}(w, payload)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("dist: installing session on worker %s: %w", s.c.addrs[w], err)
		}
	}
	copy(s.epochs, epochs)
	return nil
}

// ensureInstalled re-establishes the session on any worker whose
// control connection was redialed since its plan was shipped — the
// rejoin path for a restarted worker.  Because the fleet must agree on
// the install generation (peer hellos carry it), a single stale worker
// re-ships the whole session at a bumped generation; workers already
// holding the session swap state in place without recompiling anything
// coordinator-side.
func (s *Session) ensureInstalled(ctx context.Context) error {
	s.insMu.Lock()
	defer s.insMu.Unlock()
	stale := 0
	for w := 0; w < s.k; w++ {
		cc, err := s.c.ctrlRetry(ctx, w)
		if err != nil {
			return fmt.Errorf("dist: reaching worker %s: %w", s.c.addrs[w], err)
		}
		if cc.epoch != s.epochs[w] {
			stale++
		}
	}
	if stale == 0 {
		return nil
	}
	s.gen++
	for _, plan := range s.plans {
		plan.Gen = s.gen
	}
	if err := s.installAll(ctx); err != nil {
		return err
	}
	s.c.mx.Rejoins.Add(int64(stale))
	return nil
}

// ackError converts a control reply into an error unless it is the
// expected ack type.
func ackError(f *frame, want byte) error {
	switch f.typ {
	case want:
		return nil
	case fError:
		return codeError(f.payload)
	}
	return fmt.Errorf("%w: unexpected %d reply", ErrBadFrame, f.typ)
}

func (s *Session) sessionPayload(spec *StartSpec) []byte {
	var buf bytes.Buffer
	var sid [8]byte
	binary.LittleEndian.PutUint64(sid[:], s.id)
	buf.Write(sid[:])
	if spec != nil {
		gob.NewEncoder(&buf).Encode(spec)
	}
	return buf.Bytes()
}

// N returns the instance's node count.
func (s *Session) N() int { return s.n }

// Params returns the session's current global parameters.
func (s *Session) Params() sim.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.params
}

// Run executes one distributed run: prepare on every worker (fresh
// programs, fresh staging), a go barrier, then collection.  Any worker
// failure — including a killed process — aborts the others and
// surfaces as a run-level error; sentinel errors (wire overflow,
// budget, context) survive the trip.
func (s *Session) Run(ctx context.Context, opt RunOptions) (*RunResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("dist: session closed")
	}
	params := s.params
	s.mu.Unlock()

	// emptyTrace records that a traced run died before any shard could
	// report: every shard missing, explicitly partial.  Pre-launch
	// failures store it so the trace surface tells "never launched"
	// apart from "launched and lost shards" — and from the previous
	// run's trace, which would otherwise linger under a stale tag.
	emptyTrace := func() {
		if opt.TraceOff {
			return
		}
		tr := obs.MergeTrace(opt.Tag, make([]*obs.ShardSpans, s.k))
		s.mu.Lock()
		s.lastTrace = tr
		s.mu.Unlock()
	}

	// Heal first: a worker that restarted since the last run gets its
	// cached plan re-shipped before the run touches it.
	if err := s.ensureInstalled(ctx); err != nil {
		emptyTrace()
		return nil, err
	}

	runID := s.c.nonce.Add(1)
	rounds := s.algo.rounds(params)
	spec := &StartSpec{
		Run:          runID,
		Rounds:       rounds,
		NoWire:       opt.NoWire,
		ScrambleSeed: opt.ScrambleSeed,
		RoundBudget:  opt.RoundBudget,
		TraceOff:     opt.TraceOff,
		TraceEvery:   opt.TraceEvery,
		Tag:          opt.Tag,
	}
	collectTimeout := time.Duration(0) // unbounded: worker barrier timeouts are the backstop
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			spec.DeadlineMillis = int64(time.Until(dl) / time.Millisecond)
			if spec.DeadlineMillis <= 0 {
				return nil, context.DeadlineExceeded
			}
			collectTimeout = time.Until(dl) + s.c.timeout()
		}
	}
	s.c.mx.Runs.Add(1)

	type reply struct {
		w   int
		f   frame
		err error
	}
	phase := func(f func(w int) (frame, error)) []reply {
		out := make([]reply, s.k)
		var wg sync.WaitGroup
		for w := 0; w < s.k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fr, err := f(w)
				out[w] = reply{w: w, f: fr, err: err}
			}(w)
		}
		wg.Wait()
		return out
	}
	abort := sync.OnceFunc(func() { s.abortRun(runID) })
	fail := func(err error) (*RunResult, error) {
		s.c.mx.RunErrors.Add(1)
		abort()
		return nil, err
	}

	// Prepare: every worker installs fresh programs and staging.
	// Preparing is idempotent until the run launches, so transient
	// transport failures retry; fGo below never does.
	prep := s.sessionPayload(spec)
	prepare := func() error {
		for _, r := range phase(func(w int) (frame, error) {
			f, _, err := s.c.requestRetry(ctx, w, &frame{typ: fStart, run: runID, payload: prep},
				3*s.c.timeout(), fReady)
			return f, err
		}) {
			if r.err != nil {
				return fmt.Errorf("dist: preparing run on worker %s: %w", s.c.addrs[r.w], r.err)
			}
		}
		return nil
	}
	if err := prepare(); err != nil {
		if !errors.Is(err, errWorkerRejected) {
			emptyTrace()
			return fail(err)
		}
		// A rejection here means a worker lost the session state the
		// coordinator believes is installed — it restarted between the
		// liveness check above and this prepare, faster than the dead
		// connection was noticed.  The redial that carried the rejected
		// prepare bumped that worker's connection epoch, so a second
		// ensureInstalled now sees the staleness, re-ships the cached
		// plans, and the retried prepare lands on restored state.
		if ierr := s.ensureInstalled(ctx); ierr != nil {
			emptyTrace()
			return fail(err)
		}
		if err := prepare(); err != nil {
			emptyTrace()
			return fail(err)
		}
	}

	// Go + collect: one request whose response is the run outcome.  A
	// worker whose run fails ships its partial phase trace as an
	// fTrace frame ahead of the error verdict on the same nonce, so
	// the collect loop stashes trace frames and returns on the first
	// outcome frame.  The first error verdict aborts the other workers
	// at once: a shard that failed alone (a wire-lane overflow) never
	// flushes its round, so its peers would otherwise sit at the frame
	// barrier until the frame timeout.
	goPl := s.sessionPayload(nil)
	traces := make([]*obs.ShardSpans, s.k)
	replies := phase(func(w int) (frame, error) {
		cc, err := s.c.ctrl(w)
		if err != nil {
			return frame{}, err
		}
		ch, err := cc.register(runID)
		if err != nil {
			return frame{}, err
		}
		defer cc.unregister(runID)
		if err := cc.fc.write(&frame{typ: fGo, run: runID, payload: goPl}); err != nil {
			cc.shutdown(err)
			return frame{}, fmt.Errorf("dist: writing to worker %s: %w", cc.addr, err)
		}
		for {
			f, err := cc.await(ch, ctx, collectTimeout)
			if err != nil {
				return frame{}, err
			}
			if f.typ == fError {
				abort()
			}
			if f.typ != fTrace {
				return f, nil
			}
			var sp obs.ShardSpans
			if gob.NewDecoder(bytes.NewReader(f.payload)).Decode(&sp) == nil {
				traces[w] = &sp
			}
		}
	})
	var firstErr error
	outs := make([]any, s.n)
	stats := sim.Stats{Rounds: rounds}
	for _, r := range replies {
		err := r.err
		if err == nil {
			if r.f.typ == fError {
				err = codeError(r.f.payload)
			} else if r.f.typ != fOutputs {
				err = fmt.Errorf("%w: unexpected %d reply to go", ErrBadFrame, r.f.typ)
			}
		}
		if err != nil {
			// Prefer a semantic verdict over transport noise: an
			// aborted peer's reset explains nothing.
			if firstErr == nil || errorCode(err) != ecInternal {
				if firstErr == nil || errorCode(firstErr) == ecInternal {
					firstErr = fmt.Errorf("dist: worker %s: %w", s.c.addrs[r.w], err)
				}
			}
			continue
		}
		var om outputsMsg
		if derr := gob.NewDecoder(bytes.NewReader(r.f.payload)).Decode(&om); derr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: decoding outputs from %s: %w", s.c.addrs[r.w], derr)
			}
			continue
		}
		if om.Rounds != rounds || len(om.Outs) != len(s.nodes[r.w]) {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: worker %s returned %d outputs over %d rounds, want %d/%d",
					s.c.addrs[r.w], len(om.Outs), om.Rounds, len(s.nodes[r.w]), rounds)
			}
			continue
		}
		stats.Messages += om.Messages
		stats.Bytes += om.Bytes
		if om.HasTrace {
			sp := om.Trace
			traces[r.w] = &sp
		}
		for i, v := range s.nodes[r.w] {
			outs[v] = om.Outs[i]
		}
	}
	// Merge whatever trace material the fleet produced — failed runs
	// included, which is exactly when straggler attribution matters —
	// and keep it on the session for the serving layer.
	var trace *obs.RunTrace
	if !opt.TraceOff {
		trace = obs.MergeTrace(opt.Tag, traces)
		if firstErr != nil {
			trace.Partial = true
		}
		s.mu.Lock()
		s.lastTrace = trace
		s.mu.Unlock()
	}
	if firstErr != nil {
		return fail(firstErr)
	}
	return &RunResult{Outs: outs, Stats: stats, Trace: trace}, nil
}

// abortRun fans fAbort out to every worker, best effort.
func (s *Session) abortRun(runID uint32) {
	var sid [8]byte
	binary.LittleEndian.PutUint64(sid[:], s.id)
	for w := 0; w < s.k; w++ {
		if cc, err := s.c.ctrl(w); err == nil {
			cc.fc.write(&frame{typ: fAbort, run: runID, payload: sid[:]})
		}
	}
}

// UpdateWeights broadcasts a new weight assignment (global node order)
// and parameters to every worker; the next run uses them.  This is how
// a weights-only serving request reaches a compiled distributed
// session without re-planning.
func (s *Session) UpdateWeights(weights []int64, params sim.Params) error {
	if len(weights) != s.n {
		return fmt.Errorf("dist: %d weights for %d nodes", len(weights), s.n)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dist: session closed")
	}
	s.mu.Unlock()

	if err := s.ensureInstalled(nil); err != nil {
		return err
	}

	subs := make([][]int64, s.k)
	payloads := make([][]byte, s.k)
	var sid [8]byte
	binary.LittleEndian.PutUint64(sid[:], s.id)
	for w := 0; w < s.k; w++ {
		sub := make([]int64, len(s.nodes[w]))
		for i, v := range s.nodes[w] {
			sub[i] = weights[v]
		}
		subs[w] = sub
		var buf bytes.Buffer
		buf.Write(sid[:])
		if err := gob.NewEncoder(&buf).Encode(&weightsMsg{Weights: sub, Params: params}); err != nil {
			return err
		}
		payloads[w] = buf.Bytes()
	}
	broadcast := func() error {
		nonce := s.c.nonce.Add(1)
		errs := make([]error, s.k)
		var wg sync.WaitGroup
		for w := 0; w < s.k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, _, err := s.c.requestRetry(nil, w,
					&frame{typ: fWeights, run: nonce, payload: payloads[w]}, 2*s.c.timeout(), fWeightsOK)
				errs[w] = err
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				return fmt.Errorf("dist: updating weights on worker %s: %w", s.c.addrs[w], err)
			}
		}
		return nil
	}
	if err := broadcast(); err != nil {
		// Same restart race as Run's prepare: a worker that came back
		// between the install check and this broadcast rejects the
		// unknown session, and the redial that carried the rejection
		// bumped its epoch — so re-establish and retry once.
		if !errors.Is(err, errWorkerRejected) {
			return err
		}
		if ierr := s.ensureInstalled(nil); ierr != nil {
			return err
		}
		if err := broadcast(); err != nil {
			return err
		}
	}
	// Fold the new assignment into the cached plans too: a worker that
	// rejoins after this point must come back with these weights, or a
	// failover replay would not be bit-identical.
	s.insMu.Lock()
	for w, plan := range s.plans {
		plan.Weights = subs[w]
		plan.Params = params
	}
	s.insMu.Unlock()
	s.mu.Lock()
	s.params = params
	if s.g != nil {
		// Keep the assembly-side weight view in step with the fleet so
		// CompileVC sessions verify and weigh covers against the weights
		// the run actually used.
		s.g = s.g.WeightView(append([]int64(nil), weights...))
	}
	s.mu.Unlock()
	return nil
}

// Graph returns the current weight view of a CompileVC session's
// graph (nil for Compile sessions).
func (s *Session) Graph() *graph.G {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g
}

// addSession registers a live session for the background prober.
func (c *Coordinator) addSession(s *Session) {
	c.mu.Lock()
	if c.sessions == nil {
		c.sessions = make(map[uint64]*Session)
	}
	c.sessions[s.id] = s
	c.mu.Unlock()
}

func (c *Coordinator) removeSession(s *Session) {
	c.mu.Lock()
	delete(c.sessions, s.id)
	c.mu.Unlock()
}

func (c *Coordinator) liveSessions() []*Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		out = append(out, s)
	}
	return out
}

// probeOnce pings the fleet, caches the result for LastHealth, and —
// when every worker answers — drives session re-establishment so a
// restarted worker rejoins in the background instead of on the next
// request's critical path.
func (c *Coordinator) probeOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*c.timeout())
	health := c.Health(ctx)
	cancel()
	c.probeMu.Lock()
	c.lastHealth = health
	c.lastProbe = time.Now()
	c.probeMu.Unlock()
	for _, h := range health {
		if !h.OK {
			return
		}
	}
	for _, s := range c.liveSessions() {
		s.ensureInstalled(nil) // best effort; the next run retries
	}
}

// StartProbes launches the background health prober: an immediate
// probe, then one per interval until StopProbes or Close.  Safe to
// call once per coordinator.
func (c *Coordinator) StartProbes(interval time.Duration) {
	if interval <= 0 {
		return
	}
	c.probeMu.Lock()
	if c.probeStop != nil {
		c.probeMu.Unlock()
		return
	}
	stop := make(chan struct{})
	c.probeStop = stop
	c.probeMu.Unlock()
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		c.probeOnce()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.probeOnce()
			}
		}
	}()
}

// StopProbes halts the background prober and waits for it to exit.
func (c *Coordinator) StopProbes() {
	c.probeMu.Lock()
	stop := c.probeStop
	c.probeStop = nil
	c.probeMu.Unlock()
	if stop != nil {
		close(stop)
		c.probeWG.Wait()
	}
}

// LastHealth returns the prober's most recent fleet snapshot, if one
// exists — the serving layer reads this instead of pinging the fleet
// on every stats request.
func (c *Coordinator) LastHealth() ([]WorkerHealth, time.Time, bool) {
	c.probeMu.Lock()
	defer c.probeMu.Unlock()
	if c.lastHealth == nil {
		return nil, time.Time{}, false
	}
	return append([]WorkerHealth(nil), c.lastHealth...), c.lastProbe, true
}

// Close tears the session down on every worker, best effort.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.c.removeSession(s)
	var sid [8]byte
	binary.LittleEndian.PutUint64(sid[:], s.id)
	var firstErr error
	for w := 0; w < s.k; w++ {
		f, err := s.c.request(nil, w, &frame{typ: fClose, run: s.c.nonce.Add(1), payload: sid[:]}, s.c.timeout())
		if err == nil {
			err = ackError(&f, fReady)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CompileVC compiles a weighted graph for distributed vertex cover
// serving (the edgepack algorithm): weights and parameters are derived
// from the graph exactly as the in-process solver derives them.
func (c *Coordinator) CompileVC(g *graph.G) (*Session, error) {
	n := g.N()
	weights := make([]int64, n)
	kinds := make([]uint8, n)
	for v := 0; v < n; v++ {
		weights[v] = g.Weight(v)
	}
	s, err := c.Compile("edgepack", g, weights, kinds, sim.GraphParams(g))
	if err != nil {
		return nil, err
	}
	s.g = g
	return s, nil
}

// UpdateVCWeights recomputes the vertex-cover parameters for a new
// weight assignment and broadcasts both.
func (s *Session) UpdateVCWeights(weights []int64) error {
	params := s.Params()
	var maxW int64
	for _, w := range weights {
		if w > maxW {
			maxW = w
		}
	}
	params.W = maxW
	return s.UpdateWeights(weights, params)
}

// VertexCover runs the session's edgepack instance and assembles the
// full result, rerunning on the boxed path after a wire overflow
// exactly as the in-process solver does.
func (s *Session) VertexCover(ctx context.Context, opt RunOptions) (*edgepack.Result, error) {
	g := s.Graph()
	if s.algoName != "edgepack" || g == nil {
		return nil, errors.New("dist: session was not compiled with CompileVC")
	}
	res, err := s.Run(ctx, opt)
	if err != nil && !opt.NoWire && errors.Is(err, sim.ErrWireOverflow) {
		boxed := opt
		boxed.NoWire = true
		res, err = s.Run(ctx, boxed)
	}
	if err != nil {
		return nil, err
	}
	outs := make([]edgepack.NodeResult, len(res.Outs))
	for v, o := range res.Outs {
		nr, ok := o.(edgepack.NodeResult)
		if !ok {
			return nil, fmt.Errorf("dist: node %d returned %T, want edgepack.NodeResult", v, o)
		}
		outs[v] = nr
	}
	return edgepack.AssembleResult(g, outs, res.Stats.Rounds, res.Stats)
}
