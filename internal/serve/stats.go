package serve

import (
	"sync/atomic"
	"time"
)

// counters are the service's monotone event counts.  Every field is
// updated lock-free on the request path; Stats snapshots them for the
// /v1/stats endpoint, whose consumers (the CI smoke, the bench
// harness, operators) use them to observe cache behaviour from the
// outside — most importantly that a weight-update rerun did NOT
// recompile (Compiles stays flat while WeightUpdates moves), and that
// the fleet-scale levers engaged (Coalesced and Batched move while
// Runs stays flat).
type counters struct {
	Compiles      atomic.Int64 // solver compilations (cache misses served by a fresh Compile)
	CacheHits     atomic.Int64 // requests served by an already compiled solver
	WeightUpdates atomic.Int64 // snapshot installs on a cached solver (no recompile)
	MemoHits      atomic.Int64 // requests served from a solver's result memo
	Evictions     atomic.Int64 // solvers evicted from the LRU cache (or expired via DELETE)
	Runs          atomic.Int64 // algorithm runs executed (one per batch, however many tenants)
	RunErrors     atomic.Int64 // runs that returned a server-side error (budget, deadline, bounds)
	ClientGone    atomic.Int64 // requests abandoned by their client mid-run or mid-wait (499, not a server fault)
	Rejected      atomic.Int64 // requests refused by admission control (queue full)
	Coalesced     atomic.Int64 // requests that joined another identical request's in-flight run
	Batched       atomic.Int64 // requests executed through the batch window
	BatchRuns     atomic.Int64 // pooled batch runs executed (Batched/BatchRuns = mean occupancy)
	DistFailovers atomic.Int64 // distributed attempts transparently re-executed on a local solver

	// CertificateFailures counts runs whose cover failed verification
	// (also counted in RunErrors); it must stay 0.
	CertificateFailures atomic.Int64
}

// Stats is the JSON shape of /v1/stats.
type Stats struct {
	Compiles      int64 `json:"compiles"`
	CacheHits     int64 `json:"cache_hits"`
	WeightUpdates int64 `json:"weight_updates"`
	MemoHits      int64 `json:"memo_hits"`
	Evictions     int64 `json:"evictions"`
	Runs          int64 `json:"runs"`
	RunErrors     int64 `json:"run_errors"`
	ClientGone    int64 `json:"client_gone"`
	Rejected      int64 `json:"rejected"`
	Coalesced     int64 `json:"coalesced"`
	Batched       int64 `json:"batched"`
	BatchRuns     int64 `json:"batch_runs"`
	// CertificateFailures counts runs whose cover failed verification
	// (also counted in RunErrors); it must stay 0.
	CertificateFailures int64 `json:"certificate_failures"`
	// BatchOccupancy is the mean number of requests per pooled batch
	// run (Batched / BatchRuns); 0 while no batch has run.
	BatchOccupancy float64 `json:"batch_occupancy"`

	VertexCoverSolvers int `json:"vertexcover_solvers"` // cached vertex-cover solvers
	SetCoverSolvers    int `json:"setcover_solvers"`    // cached set-cover solvers
	PinnedSolvers      int `json:"pinned_solvers"`      // cached solvers pinned against eviction
	InFlight           int `json:"in_flight"`           // requests holding a run slot
	Queued             int `json:"queued"`              // requests admitted (running or waiting)

	// Process identity: when this server started, how long it has been
	// up, and what build is running (Go toolchain + VCS revision).
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	GoVersion     string    `json:"go_version"`
	Revision      string    `json:"revision,omitempty"`

	// Distributed reports the worker fleet in coordinator mode: per-
	// worker health probes, cached entries with a compiled fleet half,
	// and the coordinator's transport counters.  Absent in
	// single-process mode.
	Distributed *distStats `json:"distributed,omitempty"`
}

func (c *counters) snapshot() Stats {
	st := Stats{
		Compiles:      c.Compiles.Load(),
		CacheHits:     c.CacheHits.Load(),
		WeightUpdates: c.WeightUpdates.Load(),
		MemoHits:      c.MemoHits.Load(),
		Evictions:     c.Evictions.Load(),
		Runs:          c.Runs.Load(),
		RunErrors:     c.RunErrors.Load(),
		ClientGone:    c.ClientGone.Load(),
		Rejected:      c.Rejected.Load(),
		Coalesced:     c.Coalesced.Load(),
		Batched:       c.Batched.Load(),
		BatchRuns:     c.BatchRuns.Load(),

		CertificateFailures: c.CertificateFailures.Load(),
	}
	if st.BatchRuns > 0 {
		st.BatchOccupancy = float64(st.Batched) / float64(st.BatchRuns)
	}
	return st
}
