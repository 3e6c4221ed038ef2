// Command anoncoverd serves the distributed vertex-cover and set-cover
// solvers over HTTP: the serving layer over the compile-once/run-many
// session API.
//
// Topologies are compiled once into cached solver sessions keyed by a
// structure-only fingerprint; weight changes install immutable
// snapshots against the compiled topology instead of recompiling, and
// clients holding a fingerprint can POST weights alone.  See the
// README's "Serving" section for the endpoint reference.
//
// Usage:
//
//	anoncoverd -addr :8080
//	anoncoverd -addr :8080 -engine sharded -workers 4 -cache 32 -maxbudget 100000
//	anoncoverd -addr :8080 -log-format json -debug-addr localhost:6060
//
// Distributed mode splits one instance across processes: start shard
// workers, then a coordinator pointed at them.  Plain port-model
// vertex-cover requests execute across the fleet; everything else
// serves locally, bit-identical either way.
//
//	anoncoverd -worker -addr 127.0.0.1:9001
//	anoncoverd -worker -addr 127.0.0.1:9002
//	anoncoverd -addr :8080 -dist-workers 127.0.0.1:9001,127.0.0.1:9002
//
// Smoke it with curl:
//
//	curl -s -X POST --data-binary @graph.txt 'localhost:8080/v1/vertexcover?verify=true'
//	curl -s -X POST -d '{"weights":[2,1,3]}' 'localhost:8080/v1/vertexcover/<fingerprint>'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// The -debug-addr mux serves net/http/pprof and a second /metrics,
// keeping profiling endpoints off the service listener.  It works in
// -worker mode too, where /metrics exposes the worker's own
// anoncover_worker_* families (per-shard round phase histograms,
// staging occupancy, generation swaps) plus the transport counters:
//
//	anoncoverd -worker -addr 127.0.0.1:9001 -debug-addr 127.0.0.1:9011
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"anoncover"
	"anoncover/internal/dist"
	"anoncover/internal/obs"
	"anoncover/internal/serve"
)

// runWorker runs the process as one distributed shard worker: it
// serves the dist frame protocol on addr until SIGTERM/SIGINT, then
// drains gracefully — in-flight runs finish their rounds and flush
// their final halo frames before the listener closes — mirroring the
// HTTP server's shutdown path.
func runWorker(logger *slog.Logger, addr, debugAddr string, frameTimeout time.Duration) int {
	w := dist.NewWorker()
	w.Logger = logger
	if frameTimeout > 0 {
		w.FrameTimeout = frameTimeout
	}
	if err := w.Listen(addr); err != nil {
		logger.Error("anoncoverd: worker listen failed", "error", err)
		return 1
	}
	logger.Info("anoncoverd: worker serving", "addr", w.Addr())

	// The worker's own telemetry surface: pprof plus /metrics with the
	// anoncover_worker_* families (per-shard round phase histograms,
	// staging occupancy, generation swaps) and the transport counters.
	var debugSrv *http.Server
	if debugAddr != "" {
		reg := obs.NewRegistry()
		w.RegisterMetrics(reg)
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", reg.Handler())
		debugSrv = &http.Server{
			Addr:              debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("anoncoverd: worker debug mux serving", "addr", debugAddr)
			if derr := debugSrv.ListenAndServe(); !errors.Is(derr, http.ErrServerClosed) {
				logger.Error("anoncoverd: worker debug mux failed", "error", derr)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-stop
		logger.Info("anoncoverd: worker draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := w.Shutdown(ctx); err != nil {
			logger.Warn("anoncoverd: worker drain incomplete", "error", err)
		}
		if debugSrv != nil {
			debugSrv.Shutdown(ctx)
		}
	}()

	err := w.Serve()
	<-drained
	if err != nil {
		logger.Error("anoncoverd: worker serve failed", "error", err)
		return 1
	}
	logger.Info("anoncoverd: worker bye")
	return 0
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		engine      = flag.String("engine", "sharded", "session engine solvers compile with: sequential | sharded")
		workers     = flag.Int("workers", 0, "worker/shard count for the session engine; 0 = GOMAXPROCS")
		cacheSize   = flag.Int("cache", 16, "compiled solvers cached per kind (LRU)")
		memoSize    = flag.Int("memo", 8, "memoized results per cached solver; 0 disables")
		concurrency = flag.Int("concurrency", 0, "simultaneously executing runs; 0 = GOMAXPROCS")
		queue       = flag.Int("queue", 0, "requests waiting beyond -concurrency before 503; 0 = 4x concurrency")
		defBudget   = flag.Int("budget", 0, "default round budget per request; 0 = unlimited")
		maxBudget   = flag.Int("maxbudget", 0, "cap on per-request round budgets; 0 = uncapped")
		timeout     = flag.Duration("timeout", 0, "per-request wall deadline (e.g. 30s); 0 = none")
		maxBody     = flag.Int64("maxbody", 64<<20, "request body byte cap")
		batchWindow = flag.Int("batch_window_ms", 0, "batch admission window in ms for small uncached instances; 0 disables batching")
		batchNodes  = flag.Int("batch_max_nodes", 0, "max instance size eligible for the batch window; 0 = default 512")
		batchLimit  = flag.Int("batch_limit", 0, "flush a batch window early at this many requests; 0 = default 64")
		logFormat   = flag.String("log-format", "text", "log output format: text | json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
		runLog      = flag.Int("runlog", 0, "run summaries kept for GET /v1/runs; 0 = default 256")
		debugAddr   = flag.String("debug-addr", "", "listen address for the debug mux (net/http/pprof + /metrics); empty disables")
		workerMode  = flag.Bool("worker", false, "run as a distributed shard worker on -addr instead of serving HTTP")
		distWorkers = flag.String("dist-workers", "", "comma-separated worker addresses; makes this server the coordinator of a distributed fleet")
		distTimeout = flag.Duration("dist-timeout", 0, "frame/barrier timeout for distributed mode; 0 = default")
		probeEvery  = flag.Duration("probe-interval", 0, "background worker health-probe cadence in coordinator mode (drives failure detection and worker rejoin); 0 = default 5s, negative disables")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		slog.Error("anoncoverd: bad logging flags", "error", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *workerMode {
		os.Exit(runWorker(logger, *addr, *debugAddr, *distTimeout))
	}

	cfg := serve.Config{
		CacheSize:     *cacheSize,
		MaxConcurrent: *concurrency,
		QueueDepth:    *queue,
		DefaultBudget: *defBudget,
		MaxBudget:     *maxBudget,
		Timeout:       *timeout,
		MaxBody:       *maxBody,
		Workers:       *workers,
		BatchWindow:   time.Duration(*batchWindow) * time.Millisecond,
		BatchMaxNodes: *batchNodes,
		BatchLimit:    *batchLimit,
		Logger:        logger,
		RunLogSize:    *runLog,
	}
	if *memoSize <= 0 {
		cfg.MemoSize = -1
	} else {
		cfg.MemoSize = *memoSize
	}
	if *distWorkers != "" {
		for _, a := range strings.Split(*distWorkers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.WorkerAddrs = append(cfg.WorkerAddrs, a)
			}
		}
		cfg.DistTimeout = *distTimeout
		cfg.ProbeInterval = *probeEvery
	}
	eng, err := anoncover.ParseEngine(*engine)
	if err != nil || eng == anoncover.EngineCSP {
		logger.Error("anoncoverd: unknown engine (the csp test oracle cannot serve)", "engine", *engine)
		os.Exit(2)
	}
	cfg = cfg.WithEngineDefault(eng)

	svc := serve.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The debug mux keeps pprof off the service listener: operators can
	// firewall it separately and a runaway profile download cannot
	// starve request handling connections.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", svc.MetricsHandler())
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("anoncoverd: debug mux serving", "addr", *debugAddr)
			if derr := debugSrv.ListenAndServe(); !errors.Is(derr, http.ErrServerClosed) {
				logger.Error("anoncoverd: debug mux failed", "error", derr)
			}
		}()
	}

	// Graceful shutdown: stop accepting, drain in-flight requests,
	// then close every cached solver session.  ListenAndServe returns
	// as soon as Shutdown is called — it does not wait for handlers —
	// so main must block on the drain completing before tearing the
	// solver cache down.
	drained := make(chan struct{})
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(drained)
		sig := <-stop
		logger.Info("anoncoverd: shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		if debugSrv != nil {
			debugSrv.Shutdown(ctx)
		}
	}()

	conc := cfg.MaxConcurrent
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	logger.Info("anoncoverd: serving",
		"addr", *addr, "engine", *engine,
		"cache", cfg.CacheSize, "concurrency", conc)
	err = httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		logger.Error("anoncoverd: listen failed", "error", err)
		os.Exit(1)
	}
	<-drained
	svc.Close()
	logger.Info("anoncoverd: bye")
}

// buildLogger assembles the process logger from the logging flags.
// Logs go to stderr so piped stdout stays clean for tooling.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, errors.New("unknown log format " + format + " (want text or json)")
	}
}
