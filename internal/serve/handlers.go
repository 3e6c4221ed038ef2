package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"anoncover"
	"anoncover/internal/graph"
)

// runParams are the per-request knobs, parsed from the query string.
type runParams struct {
	model      string // "port" (default) or "broadcast"; vertex cover only
	engine     []anoncover.Option
	engineName string // non-empty when the request overrides the engine
	budget     int
	verify     bool
	earlyExit  bool
	scramble   int64
	progress   string // "", "ndjson" or "sse"
	every      int    // stream every N rounds
	timeout    time.Duration
	// Distributed-trace knobs: trace=off disables per-round phase
	// tracing for a fleet run, trace_every=N samples every N-th round.
	// Neither affects results, so both stay out of the memo key.
	traceOff   bool
	traceEvery int
}

func (s *Server) parseRunParams(r *http.Request) (runParams, error) {
	q := r.URL.Query()
	p := runParams{model: "port", every: 1}
	if m := q.Get("model"); m != "" {
		if m != "port" && m != "broadcast" {
			return p, fmt.Errorf("unknown model %q (want port or broadcast)", m)
		}
		p.model = m
	}
	if e := q.Get("engine"); e != "" {
		eng, err := anoncover.ParseEngine(e)
		if err != nil {
			return p, err
		}
		if eng == anoncover.EngineCSP {
			return p, fmt.Errorf("the csp engine is a test oracle and cannot serve requests (no round barrier for deadlines or progress)")
		}
		p.engine = append(p.engine, anoncover.WithEngine(eng))
		p.engineName = eng.String()
	}
	if w := q.Get("workers"); w != "" {
		n, err := strconv.Atoi(w)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad workers %q", w)
		}
		p.engine = append(p.engine, anoncover.WithWorkers(n))
	}
	p.budget = s.cfg.DefaultBudget
	if b := q.Get("budget"); b != "" {
		n, err := strconv.Atoi(b)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad budget %q", b)
		}
		p.budget = n
	}
	if s.cfg.MaxBudget > 0 && (p.budget == 0 || p.budget > s.cfg.MaxBudget) {
		p.budget = s.cfg.MaxBudget
	}
	p.verify = true
	if v := q.Get("verify"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, fmt.Errorf("bad verify %q", v)
		}
		p.verify = b
	}
	p.earlyExit = q.Get("earlyexit") == "true" || q.Get("earlyexit") == "1"
	if sc := q.Get("scramble"); sc != "" {
		n, err := strconv.ParseInt(sc, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad scramble %q", sc)
		}
		p.scramble = n
	}
	if pr := q.Get("progress"); pr != "" {
		if pr != "ndjson" && pr != "sse" {
			return p, fmt.Errorf("unknown progress format %q (want ndjson or sse)", pr)
		}
		p.progress = pr
	}
	if ev := q.Get("progress_every"); ev != "" {
		n, err := strconv.Atoi(ev)
		if err != nil || n < 1 {
			return p, fmt.Errorf("bad progress_every %q", ev)
		}
		p.every = n
	}
	if tm := q.Get("timeout_ms"); tm != "" {
		n, err := strconv.Atoi(tm)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad timeout_ms %q", tm)
		}
		p.timeout = time.Duration(n) * time.Millisecond
	}
	if t := q.Get("trace"); t != "" {
		if t != "off" && t != "on" {
			return p, fmt.Errorf("bad trace %q (want on or off)", t)
		}
		p.traceOff = t == "off"
	}
	if te := q.Get("trace_every"); te != "" {
		n, err := strconv.Atoi(te)
		if err != nil || n < 1 {
			return p, fmt.Errorf("bad trace_every %q", te)
		}
		p.traceEvery = n
	}
	if s.cfg.Timeout > 0 && (p.timeout == 0 || p.timeout > s.cfg.Timeout) {
		p.timeout = s.cfg.Timeout
	}
	return p, nil
}

// runContext derives the run context: the client disconnect (request
// context) plus the effective deadline, both enforced at the round
// barrier.
func (p *runParams) runContext(r *http.Request) (context.Context, context.CancelFunc) {
	if p.timeout > 0 {
		return context.WithTimeout(r.Context(), p.timeout)
	}
	return context.WithCancel(r.Context())
}

// options assembles the per-run option list for pinned weights w.
func (p *runParams) options(w []int64, obs func(anoncover.RoundInfo)) []anoncover.Option {
	opts := append([]anoncover.Option(nil), p.engine...)
	opts = append(opts, anoncover.WithWeights(w))
	if p.budget > 0 {
		opts = append(opts, anoncover.WithRoundBudget(p.budget))
	}
	if p.scramble != 0 {
		opts = append(opts, anoncover.WithScrambleSeed(p.scramble))
	}
	if p.earlyExit {
		opts = append(opts, anoncover.WithEarlyExit())
	}
	if obs != nil {
		opts = append(opts, anoncover.WithObserver(obs))
	}
	return opts
}

// installSnapshot is the shared weight-snapshot bookkeeping of every
// run request: under the entry's weight lock, install the request's
// vector as the session's snapshot when it differs from the current one
// (counting it as a weight update on cache hits), and short-circuit
// the no-op install on a fresh compile, whose snapshot already carries
// exactly the uploaded weights.  Returns the cache label for the
// response and the weight hash for the memo key.
func installSnapshot(s *Server, e *entry, weights []int64, hit bool) (label, whash string, err error) {
	label = "compile"
	if hit {
		label = "hit"
	}
	whash = hashWeights(weights)
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.weightsKey == "" && !hit {
		e.weightsKey = whash
	}
	if e.weightsKey != whash {
		if err := e.solver.UpdateWeights(weights); err != nil {
			return "", "", err
		}
		if hit {
			s.ctrs.WeightUpdates.Add(1)
			label = "update"
		}
		e.weightsKey = whash
	}
	return label, whash, nil
}

// hashWeights returns the canonical hash of a weight vector, the
// memo/update key companion of the topology fingerprint.
func hashWeights(w []int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range w {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memoKey is the full result-determining request signature: every
// parameter that could change the response body must appear here, or
// two requests differing only in that parameter would share a memo
// slot (and a coalesced flight).  scramble is included on contract
// even though the repo's broadcast algorithms are delivery-order
// invariant: it is a run input, and the memo must not bake in an
// invariance claim that a future algorithm may not honour.  Engine and
// worker overrides stay out by design — the equivalence suite pins
// bit-identical results across engines and delivery paths.
func (p *runParams) memoKey(algo, whash string) string {
	return strings.Join([]string{
		algo, p.model, whash,
		strconv.Itoa(p.budget), strconv.FormatBool(p.verify),
		strconv.FormatBool(p.earlyExit),
		strconv.FormatInt(p.scramble, 10),
	}, "|")
}

// algo names the algorithm a request of kind runs: the memo key's and
// the telemetry's algo label.
func (p *runParams) algo(kind string) string {
	if kind == "vertexcover" && p.model == "broadcast" {
		return "vertexcover-broadcast"
	}
	return kind
}

// batchable reports whether the request qualifies for the batch
// window: a plain port-model run with no per-request execution
// overrides (engine, budget, scramble, early exit) and no progress
// stream.  Everything a batch run shares — engine, workers, timeout —
// comes from the server session config.
func (p *runParams) batchable() bool {
	return p.progress == "" && p.model == "port" && len(p.engine) == 0 &&
		p.budget == 0 && p.scramble == 0 && !p.earlyExit
}

// admit runs admission control and reports whether the request may
// proceed; on refusal the response has already been written.  The time
// spent waiting for a run slot is the request's queue phase.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	t0 := time.Now()
	err := s.adm.acquire(r.Context())
	traceFrom(r.Context()).mark(phaseQueue, time.Since(t0))
	if err != nil {
		s.ctrs.Rejected.Add(1)
		if errors.Is(err, errBusy) {
			writeError(w, http.StatusServiceUnavailable, "run queue full; retry later")
		} else {
			writeError(w, http.StatusServiceUnavailable, "gave up waiting for a run slot: %v", err)
		}
		return false
	}
	return true
}

// statusClientGone is the nginx-style status for requests whose client
// closed the connection: the work died because the caller left, not
// because the server failed, and fleet dashboards must not read one as
// the other.
const statusClientGone = 499

// runStatus maps a server-side run error to an HTTP status.  Client
// disconnects (context.Canceled) are classified by failStatus before
// this mapping applies.
func runStatus(err error) int {
	switch {
	case errors.Is(err, anoncover.ErrRoundBudget):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// failStatus classifies a failed run and applies the outcome counter:
// a cancelled run context means the client went away (499, ClientGone
// — the run context is only ever cancelled through the request
// context); everything else is a server-side failure (RunErrors,
// runStatus mapping).
func (s *Server) failStatus(err error) int {
	if errors.Is(err, context.Canceled) {
		s.ctrs.ClientGone.Add(1)
		return statusClientGone
	}
	s.ctrs.RunErrors.Add(1)
	return runStatus(err)
}

// waitFailure reports a request that expired while parked on shared
// work — a coalesced flight or a batch window — rather than while
// running.  The shared run continues for its other clients, so no run
// counter moves; a disconnect still counts as ClientGone.
func (s *Server) waitFailure(w http.ResponseWriter, ctx context.Context) {
	if errors.Is(ctx.Err(), context.Canceled) {
		s.ctrs.ClientGone.Add(1)
		writeError(w, statusClientGone, "client went away: %v", ctx.Err())
		return
	}
	writeError(w, http.StatusGatewayTimeout, "deadline expired while waiting for the shared run: %v", ctx.Err())
}

// compileStatus maps a cache acquire/lookup error: a request that gave
// up waiting on another request's compile either timed out (504) or
// hung up (499, counted as ClientGone); anything else is the compile
// rejecting the instance.
func (s *Server) compileStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		s.ctrs.ClientGone.Add(1)
		return statusClientGone
	}
	return http.StatusBadRequest
}

// coverIndices converts a membership mask to index form for the wire.
func coverIndices(mask []bool) []int {
	out := make([]int, 0, len(mask))
	for i, in := range mask {
		if in {
			out = append(out, i)
		}
	}
	return out
}

// weightsBody is the JSON body of the weight-only endpoints.
type weightsBody struct {
	Weights []int64 `json:"weights"`
}

// readWeightsBody decodes an optional weights-only body; an empty body
// means "reuse the solver's current snapshot".
func readWeightsBody(r *http.Request, maxBody int64) ([]int64, error) {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, nil
	}
	var wb weightsBody
	if err := json.Unmarshal(data, &wb); err != nil {
		return nil, fmt.Errorf("bad weights body (want {\"weights\":[...]}): %w", err)
	}
	if wb.Weights == nil {
		return nil, fmt.Errorf("bad weights body: missing \"weights\"")
	}
	return wb.Weights, nil
}

// --- run endpoints ---

// vcResponse is the JSON result of a vertex-cover request.  Cache and
// ElapsedMS are per-request; everything else is memoizable.
type vcResponse struct {
	Fingerprint string `json:"fingerprint"`
	Algorithm   string `json:"algorithm"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Cover       []int  `json:"cover"`
	CoverSize   int    `json:"cover_size"`
	Weight      int64  `json:"weight"`
	Rounds      int    `json:"rounds"`
	Messages    int64  `json:"messages"`
	Bytes       int64  `json:"bytes"`
	Verified    bool   `json:"verified,omitempty"`
	Cache       string `json:"cache"`
	// Batch is the occupancy of the pooled run that served this
	// response (requests in the batch); 0 for unbatched responses.
	Batch     int     `json:"batch,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// scResponse is the JSON result of a set-cover request.
type scResponse struct {
	Fingerprint     string  `json:"fingerprint"`
	Algorithm       string  `json:"algorithm"`
	Subsets         int     `json:"subsets"`
	Elements        int     `json:"elements"`
	Cover           []int   `json:"cover"`
	CoverSize       int     `json:"cover_size"`
	Weight          int64   `json:"weight"`
	Rounds          int     `json:"rounds"`
	ScheduledRounds int     `json:"scheduled_rounds"`
	Messages        int64   `json:"messages"`
	Bytes           int64   `json:"bytes"`
	Verified        bool    `json:"verified,omitempty"`
	Cache           string  `json:"cache"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// response is a run endpoint's JSON result, vcResponse or scResponse.
// Responses are values: the memo and a coalesced flight share one, and
// every request stamps its own copy.
type response interface {
	counts() (rounds int, messages, bytes int64)
	// stamp returns a copy carrying one request's cache label and
	// elapsed time.
	stamp(cache string, elapsedMS float64) response
}

func (r vcResponse) counts() (int, int64, int64) { return r.Rounds, r.Messages, r.Bytes }
func (r scResponse) counts() (int, int64, int64) { return r.Rounds, r.Messages, r.Bytes }

func (r vcResponse) stamp(cache string, ms float64) response {
	r.Cache, r.ElapsedMS = cache, ms
	return r
}

func (r scResponse) stamp(cache string, ms float64) response {
	r.Cache, r.ElapsedMS = cache, ms
	return r
}

// respond builds the kind's response for a finished run.
func (out *ran) respond(fp, cache string, verified bool) response {
	cover := coverIndices(out.cover)
	if out.algo == "setcover" {
		return scResponse{
			Fingerprint: fp, Algorithm: out.algo, Subsets: out.n, Elements: out.m,
			Cover: cover, CoverSize: len(cover), Weight: out.weight,
			Rounds: out.rounds, ScheduledRounds: out.sched,
			Messages: out.messages, Bytes: out.bytes, Verified: verified, Cache: cache,
		}
	}
	return vcResponse{
		Fingerprint: fp, Algorithm: out.algo, N: out.n, M: out.m,
		Cover: cover, CoverSize: len(cover), Weight: out.weight,
		Rounds: out.rounds, Messages: out.messages, Bytes: out.bytes,
		Verified: verified, Cache: cache,
	}
}

// upload is a parsed full-instance body.
type upload struct {
	fp      string
	weights []int64
	// compile builds the instance's session on a cache miss, timing
	// it on the request trace.
	compile func() (session, error)
	// batch is set for vertex-cover instances small enough for the
	// batch window.
	batch *anoncover.Graph
}

// parser reads a full-instance body of one kind; ctx carries the
// request trace its compile marks.
type parser func(ctx context.Context, body io.Reader) (upload, error)

// parseVC reads a vertex-cover body.  In coordinator mode the session
// is a fleet-backed entry whose halves compile on first need.
func (s *Server) parseVC(ctx context.Context, body io.Reader) (upload, error) {
	g, err := graph.Parse(body)
	if err != nil {
		return upload{}, fmt.Errorf("parsing graph: %w", err)
	}
	u := upload{fp: g.Fingerprint(), weights: g.Weights()}
	if s.coord != nil {
		u.compile = func() (session, error) { return newFleetVC(s, g), nil }
		return u, nil
	}
	ag := anoncover.WrapGraph(g)
	u.compile = func() (session, error) {
		sol, err := compileTimed(ctx, s, func() (*anoncover.Solver, error) {
			return anoncover.Compile(ag, s.sessionOpts()...)
		})
		return localVC{sol}, err
	}
	if s.batch != nil && g.N() <= s.cfg.BatchMaxNodes {
		u.batch = ag
	}
	return u, nil
}

// parseSC reads a set-cover body.
func (s *Server) parseSC(ctx context.Context, body io.Reader) (upload, error) {
	ins, err := anoncover.ReadSetCover(body)
	if err != nil {
		return upload{}, fmt.Errorf("parsing instance: %w", err)
	}
	return upload{fp: ins.Fingerprint(), weights: ins.Weights(),
		compile: func() (session, error) {
			sol, err := compileTimed(ctx, s, func() (*anoncover.SetCoverSolver, error) {
				return anoncover.CompileSetCover(ins, s.sessionOpts()...)
			})
			return setCoverSession{sol}, err
		}}, nil
}

// handleRun serves a full-instance request: parse, fingerprint,
// compile or hit the cache, snapshot the weights, run.  Small plain
// vertex-cover requests for uncached topologies may take the batch
// window instead (see batch.go), which runs them pooled without
// compiling a per-topology solver.
func (s *Server) handleRun(c *cache, parse parser) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !s.admit(w, r) {
			return
		}
		defer s.adm.release()
		p, err := s.parseRunParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		u, err := parse(r.Context(), http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ctx, cancel := p.runContext(r)
		defer cancel()
		var e *entry
		hit := true
		if u.batch != nil && p.batchable() {
			// Batch only topologies that are not already compiled: a
			// cached solver (and its memo) serves a solo run cheaper
			// than packing the instance into a union, and the warm/pin
			// endpoints are the way to promote a hot tenant onto that
			// path.
			if e, err = c.lookup(ctx, u.fp); err == nil && e == nil {
				s.serveVCBatched(w, ctx, p, u.batch, u.fp, start)
				return
			}
		} else {
			e, hit, err = c.acquire(ctx, u.fp, u.compile)
		}
		if err != nil {
			writeError(w, s.compileStatus(err), "compiling solver: %v", err)
			return
		}
		defer c.release(e)
		s.serve(w, ctx, p, c.kind, e, u.weights, hit, start)
	}
}

// handleWeights serves a weights-only request against an already
// cached topology: the snapshot weight-update path, with no instance
// upload and no recompile.
func (s *Server) handleWeights(c *cache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !s.admit(w, r) {
			return
		}
		defer s.adm.release()
		p, err := s.parseRunParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ctx, cancel := p.runContext(r)
		defer cancel()
		fp := r.PathValue("fp")
		e, err := c.lookup(ctx, fp)
		if err != nil {
			writeError(w, s.compileStatus(err), "cached solver: %v", err)
			return
		}
		if e == nil {
			writeError(w, http.StatusNotFound, "no cached solver for fingerprint %s; POST the full instance to /v1/%s", fp, c.kind)
			return
		}
		defer c.release(e)
		weights, err := readWeightsBody(r, s.cfg.MaxBody)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if weights == nil {
			weights = e.solver.Weights()
		}
		s.serve(w, ctx, p, c.kind, e, weights, true, start)
	}
}

// serve is the one run path: weight snapshot bookkeeping, then memo →
// coalesce → run.  Progress requests bypass the memo and the
// single-flight layer — they want the round stream, not a shared
// answer — and open their stream eagerly so the client sees bytes
// before the first (possibly slow) round completes.
func (s *Server) serve(w http.ResponseWriter, ctx context.Context, p runParams,
	kind string, e *entry, weights []int64, hit bool, start time.Time) {

	cacheLabel, whash, err := installSnapshot(s, e, weights, hit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "updating weights: %v", err)
		return
	}

	algo := p.algo(kind)
	mkey := p.memoKey(algo, whash)
	tr := traceFrom(ctx)
	tr.label(algo, e.key, cacheLabel)
	tr.setEngine(p.engineName)

	if p.progress != "" {
		stream, obs := newStream(w, p)
		stream.start(algo, tr.runID())
		resp, label, status, errMsg := s.exec(ctx, p, e, weights, cacheLabel, obs)
		if errMsg != "" {
			stream.fail(status, "%s", errMsg)
			return
		}
		stream.finish(resp.stamp(label, msSince(start)))
		return
	}

	serve := func(resp response, label string) {
		tr.setCache(label)
		tr.result(resp.counts())
		writeJSON(w, http.StatusOK, resp.stamp(label, msSince(start)))
	}
	fkey := e.key + "|" + mkey
	for {
		if v, ok := e.memo.get(mkey); ok {
			s.ctrs.MemoHits.Add(1)
			serve(v, "memo")
			return
		}
		f, leader := s.flights.join(fkey)
		if leader {
			resp, label, status, errMsg := s.exec(ctx, p, e, weights, cacheLabel, nil)
			if errMsg == "" {
				e.memo.put(mkey, resp)
			}
			f.resp, f.status, f.errMsg = resp, status, errMsg
			s.flights.leave(fkey, f)
			if errMsg != "" {
				writeError(w, status, "%s", errMsg)
				return
			}
			serve(resp, label)
			return
		}
		s.ctrs.Coalesced.Add(1)
		select {
		case <-f.done:
			if f.errMsg == "" {
				serve(f.resp, "coalesced")
				return
			}
			if ctx.Err() != nil {
				// Both channels were ready and the select picked
				// f.done: this joiner's own context died while the
				// shared run failed.  Classify by OUR context — the
				// leader's failure already moved the leader's counter,
				// and without this check an abandoned joiner would be
				// reported under the leader's status and counted
				// nowhere.
				s.waitFailure(w, ctx)
				return
			}
			if retryShared(f.status, ctx) {
				// The leader's own context killed the shared run (its
				// client hung up, or its deadline was shorter than
				// ours); this joiner is still live, so take the lead
				// on a fresh flight (or hit the memo if one landed).
				continue
			}
			writeError(w, f.status, "%s", f.errMsg)
			return
		case <-ctx.Done():
			s.waitFailure(w, ctx)
			return
		}
	}
}

// retryShared reports whether a joiner whose shared run failed should
// retry with a fresh flight: the failure was the leader's own context
// dying (disconnect or deadline), and this request's context is alive.
func retryShared(status int, ctx context.Context) bool {
	return (status == statusClientGone || status == http.StatusGatewayTimeout) &&
		ctx.Err() == nil
}

// exec runs the session once, verifies the run unless the request
// opted out, and builds the response under its cache label:
// cacheLabel, or dist_failover when a fleet fault moved the run to a
// local solver.  On failure it returns the classified status and
// message (counters already applied); on success errMsg is empty and
// status is 0.
func (s *Server) exec(ctx context.Context, p runParams, e *entry, weights []int64,
	cacheLabel string, obs func(anoncover.RoundInfo)) (response, string, int, string) {

	s.ctrs.Runs.Add(1)
	out, err := e.solver.run(ctx, p, weights, obs)
	if err != nil {
		return nil, "", s.failStatus(err), fmt.Sprintf("run failed: %v", err)
	}
	s.tel.observeRun(out.algo, out.rounds, out.messages, out.bytes)
	if out.failover {
		cacheLabel = "dist_failover"
	}
	if p.verify {
		t0 := time.Now()
		verr := out.verify()
		traceFrom(ctx).mark(phaseVerify, time.Since(t0))
		if verr != nil {
			s.ctrs.RunErrors.Add(1)
			s.ctrs.CertificateFailures.Add(1)
			return nil, "", http.StatusInternalServerError, fmt.Sprintf("INVARIANT VIOLATION: %v", verr)
		}
	}
	return out.respond(e.key, cacheLabel, p.verify), cacheLabel, 0, ""
}

// handleWarm compiles (or touches) a session without running anything:
// upload the instance, get the fingerprint back, optionally pin it in
// the same call (?pin=true).  This is the promotion path for tenants
// hot enough to outgrow the batch window.  A fleet-backed entry warms
// the half a plain request would run on.
func (s *Server) handleWarm(c *cache, parse parser) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(w, r) {
			return
		}
		defer s.adm.release()
		ctx := r.Context()
		u, err := parse(ctx, http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		e, hit, err := c.acquire(ctx, u.fp, u.compile)
		if err == nil {
			defer c.release(e)
			if f, ok := e.solver.(*fleetVC); ok {
				err = f.warm(ctx)
			}
		}
		if err != nil {
			writeError(w, s.compileStatus(err), "compiling solver: %v", err)
			return
		}
		if _, _, err := installSnapshot(s, e, u.weights, hit); err != nil {
			writeError(w, http.StatusBadRequest, "updating weights: %v", err)
			return
		}
		resp := warmResponse{Fingerprint: u.fp, Kind: c.kind, Cache: "compile"}
		if hit {
			resp.Cache = "hit"
		}
		if pin := r.URL.Query().Get("pin"); pin == "true" || pin == "1" {
			c.setPinned(u.fp, true)
			resp.Pinned = true
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// sessionOpts are the compile-time session defaults.
func (s *Server) sessionOpts() []anoncover.Option {
	opts := []anoncover.Option{anoncover.WithEngine(s.cfg.Engine)}
	if s.cfg.Workers > 0 {
		opts = append(opts, anoncover.WithWorkers(s.cfg.Workers))
	}
	return opts
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
