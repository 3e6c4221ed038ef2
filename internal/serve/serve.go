// Package serve turns the anoncover solver sessions into an HTTP
// service: the serving subsystem the library's compile-once/run-many
// API was built for.
//
// The service accepts vertex-cover graphs and set-cover instances in
// the repo's text formats, compiles them into sessions, and serves
// algorithm runs against them.  Every run request takes one path —
// cache → weight snapshot → memo → coalesce → run — whatever executes
// the session: the local engines, or in coordinator mode a worker
// fleet with a local half to fail over to (see dist.go).  Three layers
// make it a service rather than an RPC wrapper:
//
//   - A session cache per instance kind, keyed by the canonical
//     topology fingerprint (structure only — weights excluded), with
//     LRU eviction, single-flight compilation, and refcounted Close on
//     eviction.  Every weight assignment over one topology shares one
//     compiled session.
//   - A snapshot weight-update path: a request whose topology is
//     cached but whose weights differ installs a new immutable weight
//     snapshot (Solver.UpdateWeights) — no recompile of the CSR
//     topology, shard partition, wire tables or pools — and clients
//     holding the fingerprint can POST weights alone, skipping the
//     topology upload entirely.  Identical (topology, weights,
//     options) requests are served from a small per-solver result
//     memo: the algorithms are deterministic, so the memoized answer
//     is bit-identical to a re-run.
//   - Admission control: a bounded run queue (reject-beyond-depth),
//     per-request round budgets clamped to a server maximum, request
//     deadlines mapped to the round barrier through the run context,
//     and per-round progress streaming (ndjson or SSE) built on the
//     session observer.
//
// See the README's "Serving" section for the endpoint reference.
package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"time"

	"anoncover"
	"anoncover/internal/dist"
)

// defaultProbeInterval is the coordinator's background health-probe
// cadence when Config.ProbeInterval is unset.
const defaultProbeInterval = 5 * time.Second

// Config tunes the service; the zero value serves with sane defaults.
type Config struct {
	// CacheSize bounds the compiled solvers kept per kind
	// (vertex-cover and set-cover each get their own cache).
	// Default 16.
	CacheSize int
	// MemoSize bounds the memoized results kept per cached solver.
	// 0 uses the default (8); negative disables result memoization.
	MemoSize int
	// MaxConcurrent bounds simultaneously executing runs; default
	// GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a run slot beyond
	// MaxConcurrent; further requests get 503.  Default
	// 4*MaxConcurrent.
	QueueDepth int
	// DefaultBudget is the round budget applied to requests that do
	// not pass one; 0 means unlimited.
	DefaultBudget int
	// MaxBudget caps the budget a request may ask for (and the
	// unlimited default); 0 means uncapped.
	MaxBudget int
	// MaxBody caps request body bytes; default 64 MiB.
	MaxBody int64
	// Timeout is the per-request wall clock deadline, enforced at the
	// round barrier through the run context; 0 means none.
	Timeout time.Duration
	// Engine and Workers are the session defaults solvers are compiled
	// with.  Per-request engine overrides are run options and do not
	// recompile.  Default EngineSharded with GOMAXPROCS workers.
	Engine  anoncover.Engine
	Workers int
	// BatchWindow enables batched small-instance execution: plain
	// port-model requests for uncached topologies wait up to this long
	// and run pooled as one disjoint union under a single barrier
	// (bit-identical per-request results; see batch.go).  0 disables
	// batching.
	BatchWindow time.Duration
	// BatchMaxNodes caps the instance size eligible for the batch
	// window; larger instances always run solo.  Default 512 when
	// BatchWindow is set.
	BatchMaxNodes int
	// BatchLimit flushes a window early once this many requests are
	// parked in it.  Default 64.
	BatchLimit int
	// WorkerAddrs, when non-empty, turns the server into the
	// coordinator of a distributed worker fleet (anoncoverd -worker
	// processes listening at these addresses).  Each cached
	// vertex-cover topology is then one fleet-backed entry: plain
	// port-model requests run on its fleet half, other requests and
	// fleet faults on its local half, each half compiled on first need.
	// Vertex-cover requests skip the batch window.  Set cover always
	// runs on the local engines.
	WorkerAddrs []string
	// DistTimeout bounds control-frame round trips and worker barrier
	// waits in distributed mode; 0 uses the dist package default.
	DistTimeout time.Duration
	// ProbeInterval is the background health-probe cadence in
	// coordinator mode.  Probes detect worker failures between requests
	// and, once the whole fleet answers, re-ship shard plans to workers
	// that restarted (rejoin without a recompile).  0 uses the default
	// (5s); negative disables background probing.
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-fleet-fault count that opens
	// the distributed path's circuit breaker (default 3);
	// BreakerCooldown is how long it stays open before admitting a
	// half-open trial request (default 2s).  While open, eligible
	// requests run on their entries' local halves instead of paying a
	// doomed fleet attempt.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// distConnHook wraps every coordinator-side connection; the fault
	// injection seam for the chaos tests.
	distConnHook func(net.Conn) net.Conn
	// Logger receives one structured access-log record per request plus
	// request-lifecycle events.  nil discards logs (tests, embedding).
	Logger *slog.Logger
	// RunLogSize bounds the run-trace ring served by GET /v1/runs.
	// Default 256.
	RunLogSize int
	// engineSet distinguishes an explicit EngineSequential (0) from an
	// unset field; WithEngineDefault sets it.
	engineSet bool
}

// WithEngineDefault returns a copy of cfg with an explicit default
// engine (needed to select EngineSequential, whose value is the zero
// Engine).
func (c Config) WithEngineDefault(e anoncover.Engine) Config {
	c.Engine = e
	c.engineSet = true
	return c
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	switch {
	case c.MemoSize == 0:
		c.MemoSize = 8
	case c.MemoSize < 0:
		c.MemoSize = 0
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if !c.engineSet && c.Engine == anoncover.EngineSequential {
		c.Engine = anoncover.EngineSharded
	}
	if c.BatchWindow > 0 {
		if c.BatchMaxNodes <= 0 {
			c.BatchMaxNodes = 512
		}
		if c.BatchLimit <= 0 {
			c.BatchLimit = 64
		}
	}
	return c
}

// Server is the HTTP solver service.  Create with New, mount Handler,
// Close when done (closes every cached solver).
type Server struct {
	cfg     Config
	vc      *cache            // vertex-cover sessions (fleet-backed in coordinator mode)
	sc      *cache            // set-cover sessions
	coord   *dist.Coordinator // nil unless WorkerAddrs configured
	brk     *breaker          // distributed-path circuit breaker
	adm     *admission
	ctrs    counters
	flights *flights
	batch   *vcBatcher  // nil when BatchWindow is 0
	traces  *traceStore // merged distributed run traces, by run ID
	tel     *telemetry
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the telemetry middleware
	started time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		flights: newFlights(),
		started: time.Now(),
	}
	s.vc = newCache("vertexcover", cfg.CacheSize, cfg.MemoSize, &s.ctrs)
	s.sc = newCache("setcover", cfg.CacheSize, cfg.MemoSize, &s.ctrs)
	s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	if len(cfg.WorkerAddrs) > 0 {
		s.traces = newTraceStore(0)
		s.coord = dist.NewCoordinator(cfg.WorkerAddrs)
		if cfg.DistTimeout > 0 {
			s.coord.FrameTimeout = cfg.DistTimeout
		}
		s.coord.ConnHook = cfg.distConnHook
		interval := cfg.ProbeInterval
		if interval == 0 {
			interval = defaultProbeInterval
		}
		if interval > 0 {
			s.coord.StartProbes(interval)
		}
	}
	if cfg.BatchWindow > 0 {
		// The session options are validated at Compile time too, so a
		// config the batcher rejects would fail every request anyway;
		// leave batch nil and let the solo path report it.
		s.batch, _ = newVCBatcher(s)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/vertexcover", s.handleRun(s.vc, s.parseVC))
	mux.HandleFunc("POST /v1/vertexcover/{fp}", s.handleWeights(s.vc))
	mux.HandleFunc("POST /v1/setcover", s.handleRun(s.sc, s.parseSC))
	mux.HandleFunc("POST /v1/setcover/{fp}", s.handleWeights(s.sc))
	mux.HandleFunc("GET /v1/solvers", s.handleSolversList)
	mux.HandleFunc("DELETE /v1/solvers/{fp}", s.handleSolverDelete)
	mux.HandleFunc("POST /v1/solvers/{fp}/pin", s.handleSolverPin)
	mux.HandleFunc("DELETE /v1/solvers/{fp}/pin", s.handleSolverUnpin)
	mux.HandleFunc("POST /v1/solvers/vertexcover", s.handleWarm(s.vc, s.parseVC))
	mux.HandleFunc("POST /v1/solvers/setcover", s.handleWarm(s.sc, s.parseSC))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.tel = newTelemetry(s, cfg.Logger, cfg.RunLogSize)
	if s.coord != nil {
		s.coord.Metrics().Register(s.tel.reg)
		s.tel.reg.CounterFuncs("anoncover_dist_failovers_total",
			"Distributed attempts transparently re-executed on a local solver.").
			Add(func() float64 { return float64(s.ctrs.DistFailovers.Load()) })
		s.tel.reg.GaugeFuncs("anoncover_dist_breaker_state",
			"Distributed-path circuit breaker state (0 closed, 1 open, 2 half-open).").
			Add(func() float64 { return s.brk.stateVal() })
		s.tel.reg.GaugeFuncs("anoncover_dist_traces",
			"Merged distributed run traces retained for GET /v1/runs/{id}/trace.").
			Add(func() float64 { return float64(s.traces.len()) })
	}
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunDetail)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	mux.Handle("GET /metrics", s.MetricsHandler())
	s.mux = mux
	s.handler = s.instrument(mux)
	return s
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// the telemetry middleware (run IDs, latency histograms, access logs).
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close evicts and closes every cached session and releases the batch
// runner's pooled workers.  In-flight requests finish on the sessions
// they hold; their sessions close on release.
func (s *Server) Close() error {
	s.vc.closeAll()
	s.sc.closeAll()
	if s.coord != nil {
		s.coord.Close()
	}
	if s.batch != nil {
		s.batch.close()
	}
	return nil
}

// Stats snapshots the service counters and gauges.
func (s *Server) Stats() Stats {
	st := s.ctrs.snapshot()
	st.VertexCoverSolvers = s.vc.len()
	st.SetCoverSolvers = s.sc.len()
	st.PinnedSolvers = s.vc.pinnedCount() + s.sc.pinnedCount()
	st.InFlight = s.adm.inFlight()
	st.Queued = s.adm.queued()
	st.StartedAt = s.started
	st.UptimeSeconds = time.Since(s.started).Seconds()
	bi := buildInfo()
	st.GoVersion = bi.goVersion
	if bi.revision != "unknown" {
		st.Revision = bi.revision
	}
	st.Distributed = s.distStats()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}
