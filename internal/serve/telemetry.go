package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anoncover/internal/obs"
)

// Telemetry: the observability layer threaded through every request.
//
// A middleware around the mux assigns each request a run ID (accepted
// via X-Request-Id or generated), echoes it as X-Run-Id, and carries a
// per-request trace through the handler chain.  Handlers mark phase
// boundaries — queue wait, compile, run wall, verify — at request
// granularity only: nothing below this file touches the round barrier,
// so the 0 allocs/round hot path is untouched by telemetry.
//
// When the request finishes, the middleware folds the trace into three
// sinks at once: the OpenMetrics registry (GET /metrics — latency
// histograms split by phase and labeled by algo/engine/outcome/cache,
// counters mirroring the serve counters, gauges sampled at scrape
// time), the run ring (GET /v1/runs — the last N run summaries for
// tail-latency forensics), and the structured access log (one slog
// line per request).  Label values all come from small closed sets;
// fingerprints and run IDs never become labels.

// latencyBuckets spans 100µs to ~1.7min in log-spaced steps — wide
// enough for memo hits and for multi-second cold compiles.
var latencyBuckets = obs.ExpBuckets(0.0001, 2, 20)

// countBuckets covers per-run rounds, messages and bytes: 1 to ~10^9.
var countBuckets = obs.ExpBuckets(1, 4, 16)

// telemetry owns the metrics registry, the run ring and the access
// logger.  One per Server.
type telemetry struct {
	reg     *obs.Registry
	runs    *obs.RunLog
	log     *slog.Logger
	started time.Time

	// requestSeconds is total request wall time for the run endpoints,
	// labeled by the full bounded outcome signature.
	requestSeconds *obs.HistogramVec
	// phaseSeconds splits request latency by phase; a phase is observed
	// only when the request actually entered it.
	phaseSeconds *obs.HistogramVec
	// Per-run result distributions, observed once per executed run (not
	// per request — memo and coalesced joiners do not re-observe them).
	runRounds   *obs.HistogramVec
	runMessages *obs.HistogramVec
	runBytes    *obs.HistogramVec
	// responses counts every HTTP response by status code.
	responses *obs.CounterVec
}

// newTelemetry builds the registry and wires the scrape-time mirrors
// of the server's counters and gauges.
func newTelemetry(s *Server, logger *slog.Logger, runLogSize int) *telemetry {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if runLogSize <= 0 {
		runLogSize = 256
	}
	reg := obs.NewRegistry()
	t := &telemetry{
		reg:     reg,
		runs:    obs.NewRunLog(runLogSize),
		log:     logger,
		started: time.Now(),

		requestSeconds: reg.HistogramVec("anoncover_request_seconds",
			"Run-endpoint request wall time in seconds.",
			latencyBuckets, "algo", "engine", "outcome", "cache"),
		phaseSeconds: reg.HistogramVec("anoncover_request_phase_seconds",
			"Request latency split by phase: queue wait, compile, run wall, verify.",
			latencyBuckets, "phase"),
		runRounds: reg.HistogramVec("anoncover_run_rounds",
			"Synchronous rounds per executed algorithm run.",
			countBuckets, "algo"),
		runMessages: reg.HistogramVec("anoncover_run_messages",
			"Messages delivered per executed algorithm run.",
			countBuckets, "algo"),
		runBytes: reg.HistogramVec("anoncover_run_bytes",
			"Payload bytes delivered per executed algorithm run.",
			countBuckets, "algo"),
		responses: reg.CounterVec("anoncover_http_responses",
			"HTTP responses by status code.", "code"),
	}

	mirror := func(name, help string, v *atomic.Int64) {
		reg.CounterFuncs(name, help).Add(func() float64 { return float64(v.Load()) })
	}
	mirror("anoncover_compiles", "Solver compilations (cache misses served by a fresh Compile).", &s.ctrs.Compiles)
	mirror("anoncover_cache_hits", "Requests served by an already compiled solver.", &s.ctrs.CacheHits)
	mirror("anoncover_weight_updates", "Snapshot weight installs on a cached solver (no recompile).", &s.ctrs.WeightUpdates)
	mirror("anoncover_memo_hits", "Requests served from a solver's result memo.", &s.ctrs.MemoHits)
	mirror("anoncover_evictions", "Solvers evicted from the LRU cache or expired via DELETE.", &s.ctrs.Evictions)
	mirror("anoncover_runs", "Algorithm runs executed (one per batch, however many tenants).", &s.ctrs.Runs)
	mirror("anoncover_run_errors", "Runs that returned a server-side error.", &s.ctrs.RunErrors)
	mirror("anoncover_client_gone", "Requests abandoned by their client mid-run or mid-wait.", &s.ctrs.ClientGone)
	mirror("anoncover_rejected", "Requests refused by admission control.", &s.ctrs.Rejected)
	mirror("anoncover_coalesced", "Requests that joined another identical request's in-flight run.", &s.ctrs.Coalesced)
	mirror("anoncover_batched", "Requests executed through the batch window.", &s.ctrs.Batched)
	mirror("anoncover_batch_runs", "Pooled batch runs executed.", &s.ctrs.BatchRuns)
	mirror("anoncover_certificate_failures", "Runs whose cover failed verification; must stay 0.", &s.ctrs.CertificateFailures)

	reg.GaugeFuncs("anoncover_cached_solvers",
		"Compiled solvers currently cached, by instance kind.", "kind").
		Add(func() float64 { return float64(s.vc.len()) }, "vertexcover").
		Add(func() float64 { return float64(s.sc.len()) }, "setcover")
	reg.GaugeFuncs("anoncover_pinned_solvers",
		"Cached solvers pinned against LRU eviction.").
		Add(func() float64 { return float64(s.vc.pinnedCount() + s.sc.pinnedCount()) })
	reg.GaugeFuncs("anoncover_inflight_runs",
		"Requests currently holding a run slot.").
		Add(func() float64 { return float64(s.adm.inFlight()) })
	reg.GaugeFuncs("anoncover_queued_requests",
		"Requests admitted (running or waiting for a slot).").
		Add(func() float64 { return float64(s.adm.queued()) })
	reg.GaugeFuncs("anoncover_run_log_records",
		"Run summaries currently held by the /v1/runs ring.").
		Add(func() float64 { return float64(t.runs.Len()) })
	reg.GaugeFuncs("anoncover_started_timestamp_seconds",
		"Unix time the server started.").
		Add(func() float64 { return float64(t.started.Unix()) })
	bi := buildInfo()
	reg.GaugeFuncs("anoncover_build_info",
		"Build metadata; the value is always 1.", "go_version", "revision").
		Add(func() float64 { return 1 }, bi.goVersion, bi.revision)
	return t
}

// --- request traces ---

// phase indexes into reqTrace.phases.
type phase int

const (
	phaseQueue phase = iota
	phaseCompile
	phaseRun
	phaseVerify
	phaseCount
)

func (p phase) String() string {
	switch p {
	case phaseQueue:
		return "queue"
	case phaseCompile:
		return "compile"
	case phaseRun:
		return "run"
	case phaseVerify:
		return "verify"
	}
	return "unknown"
}

// reqTrace is the per-request telemetry accumulator, created by the
// middleware and filled in by the handlers.  All writes happen on the
// request goroutine (the batch path copies results over before the
// waiter returns), so no locking is needed.
type reqTrace struct {
	id     string
	algo   string // "" for non-run endpoints
	engine string
	cache  string
	fp     string
	batch  int

	phases  [phaseCount]time.Duration
	entered [phaseCount]bool

	rounds   int
	messages int64
	bytes    int64
	// hasTrace marks that a merged distributed phase trace was stored
	// for this run ID (GET /v1/runs/{id}/trace will answer).
	hasTrace bool
}

// mark records that the request entered a phase and how long it spent
// there.
func (tr *reqTrace) mark(p phase, d time.Duration) {
	if tr == nil {
		return
	}
	tr.phases[p] += d
	tr.entered[p] = true
}

// result copies the run outcome numbers shared by every serving path.
func (tr *reqTrace) result(rounds int, messages, bytes int64) {
	if tr == nil {
		return
	}
	tr.rounds, tr.messages, tr.bytes = rounds, messages, bytes
}

// label tags the trace as a run request: the algorithm, the topology
// fingerprint and the provisional cache class (refined by setCache when
// the memo or a coalesced flight serves the answer).
func (tr *reqTrace) label(algo, fp, cache string) {
	if tr == nil {
		return
	}
	tr.algo, tr.fp, tr.cache = algo, fp, cache
}

func (tr *reqTrace) setCache(c string) {
	if tr != nil {
		tr.cache = c
	}
}

func (tr *reqTrace) setEngine(e string) {
	if tr != nil && e != "" {
		tr.engine = e
	}
}

func (tr *reqTrace) setBatch(n int) {
	if tr != nil {
		tr.batch = n
	}
}

func (tr *reqTrace) setTrace() {
	if tr != nil {
		tr.hasTrace = true
	}
}

// runID returns the trace's run ID, or "" outside the instrumented mux.
func (tr *reqTrace) runID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

type traceCtxKey struct{}

// traceFrom returns the request's trace, or nil when the handler runs
// outside the instrumented mux (every nil-receiver method is a no-op,
// so un-instrumented use stays safe).
func traceFrom(ctx context.Context) *reqTrace {
	tr, _ := ctx.Value(traceCtxKey{}).(*reqTrace)
	return tr
}

// requestID returns the client-provided X-Request-Id when it is usable
// as a run ID — short, printable, no spaces — and a generated one
// otherwise.  The ID is never used as a metric label, so client
// cardinality is harmless.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > 64 {
		return obs.NewRunID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' || id[i] == '"' {
			return obs.NewRunID()
		}
	}
	return id
}

// statusWriter captures the response status for the access log and the
// outcome classification, passing Flush through so progress streams
// keep flushing per round.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with the telemetry middleware.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := &reqTrace{id: requestID(r), engine: s.cfg.Engine.String()}
		w.Header().Set("X-Run-Id", tr.id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr)))
		s.tel.finish(r, tr, sw.code, time.Since(start))
	})
}

// outcomeOf maps a response status to the bounded outcome label.
func outcomeOf(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "ok"
	case status == statusClientGone:
		return "client_gone"
	case status == http.StatusServiceUnavailable:
		return "rejected"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status == http.StatusUnprocessableEntity:
		return "budget"
	default:
		return "error"
	}
}

// finish folds one finished request into the three sinks: metrics,
// run ring, access log.
func (t *telemetry) finish(r *http.Request, tr *reqTrace, status int, total time.Duration) {
	if status == 0 {
		status = http.StatusOK // nothing written: the empty 200
	}
	outcome := outcomeOf(status)
	t.responses.With(strconv.Itoa(status)).Inc()

	attrs := make([]slog.Attr, 0, 16)
	attrs = append(attrs,
		slog.String("run_id", tr.id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("elapsed_ms", durMS(total)),
	)

	if tr.algo != "" { // a run endpoint
		cache := tr.cache
		if cache == "" {
			cache = "none"
		}
		t.requestSeconds.With(tr.algo, tr.engine, outcome, cache).Observe(total.Seconds())
		for p := phaseQueue; p < phaseCount; p++ {
			if tr.entered[p] {
				t.phaseSeconds.With(p.String()).Observe(tr.phases[p].Seconds())
			}
		}
		rec := obs.RunRecord{
			ID: tr.id, Algo: tr.algo, Engine: tr.engine,
			Fingerprint: tr.fp, Cache: cache, Outcome: outcome,
			Status: status, Batch: tr.batch, Trace: tr.hasTrace,
			Rounds: tr.rounds, Messages: tr.messages, Bytes: tr.bytes,
			QueueMS:   durMS(tr.phases[phaseQueue]),
			CompileMS: durMS(tr.phases[phaseCompile]),
			RunMS:     durMS(tr.phases[phaseRun]),
			VerifyMS:  durMS(tr.phases[phaseVerify]),
			TotalMS:   durMS(total),
			StartedAt: time.Now().Add(-total),
		}
		t.runs.Add(rec)
		attrs = append(attrs,
			slog.String("algo", tr.algo),
			slog.String("engine", tr.engine),
			slog.String("outcome", outcome),
			slog.String("cache", cache),
			slog.String("fingerprint", tr.fp),
			slog.Int("rounds", tr.rounds),
			slog.Float64("queue_ms", rec.QueueMS),
			slog.Float64("compile_ms", rec.CompileMS),
			slog.Float64("run_ms", rec.RunMS),
			slog.Float64("verify_ms", rec.VerifyMS),
		)
		if tr.batch > 0 {
			attrs = append(attrs, slog.Int("batch", tr.batch))
		}
	}

	level := slog.LevelInfo
	if status >= 500 && status != statusClientGone {
		level = slog.LevelWarn
	}
	t.log.LogAttrs(r.Context(), level, "request", attrs...)
}

// observeRun records the per-run result distributions.  Called once
// per executed run — by the leader of a coalesced flight and by the
// batch goroutine — never by joiners or memo hits, so the histograms
// count runs, not requests.
func (t *telemetry) observeRun(algo string, rounds int, messages, bytes int64) {
	t.runRounds.With(algo).Observe(float64(rounds))
	t.runMessages.With(algo).Observe(float64(messages))
	t.runBytes.With(algo).Observe(float64(bytes))
}

func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// --- HTTP surface ---

// MetricsHandler returns the OpenMetrics exposition handler, mounted
// at GET /metrics on the service mux and reusable on a separate debug
// mux (cmd/anoncoverd -debug-addr).
func (s *Server) MetricsHandler() http.Handler { return s.tel.reg.Handler() }

// runsResponse is the JSON shape of GET /v1/runs.
type runsResponse struct {
	Runs []obs.RunRecord `json:"runs"`
}

// handleRuns serves the run ring, newest first; ?n= bounds the count,
// ?outcome= and ?algo= filter on the bounded label sets (filters apply
// before the count bound, so n= means "the newest n matching runs").
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	max := 0
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		max = n
	}
	outcome, algo := q.Get("outcome"), q.Get("algo")
	runs := s.tel.runs.Snapshot(0)
	if outcome != "" || algo != "" {
		kept := runs[:0]
		for _, rec := range runs {
			if (outcome == "" || rec.Outcome == outcome) && (algo == "" || rec.Algo == algo) {
				kept = append(kept, rec)
			}
		}
		runs = kept
	}
	if max > 0 && len(runs) > max {
		runs = runs[:max]
	}
	if runs == nil {
		runs = []obs.RunRecord{}
	}
	writeJSON(w, http.StatusOK, runsResponse{Runs: runs})
}

// handleRunDetail serves one run summary from the ring by run ID.
func (s *Server) handleRunDetail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.tel.runs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q in the run log", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleRunTrace serves the merged distributed phase trace for a run.
// Only runs that executed on the worker fleet have one: memo hits,
// coalesced joiners, local-engine runs and failovers never contact the
// fleet, and trace=off disables recording — the 404 message says which
// case applies when the run itself is still in the ring.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rt, ok := s.traces.get(id); ok {
		writeJSON(w, http.StatusOK, rt)
		return
	}
	if rec, ok := s.tel.runs.Get(id); ok {
		writeError(w, http.StatusNotFound,
			"run %q has no distributed trace (cache=%s engine=%s; only fresh fleet runs with tracing on record one)",
			id, rec.Cache, rec.Engine)
		return
	}
	writeError(w, http.StatusNotFound, "no trace for run %q", id)
}

// --- build info ---

type serverBuildInfo struct {
	goVersion string
	revision  string
}

var (
	buildInfoOnce sync.Once
	buildInfoVal  serverBuildInfo
)

// buildInfo reads the Go version and VCS revision baked into the
// binary, once.
func buildInfo() serverBuildInfo {
	buildInfoOnce.Do(func() {
		buildInfoVal = serverBuildInfo{goVersion: "unknown", revision: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfoVal.goVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				buildInfoVal.revision = kv.Value
			}
		}
	})
	return buildInfoVal
}
