package dist

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anoncover/internal/obs"
)

// Metrics aggregates transport activity across every run that shares a
// Cluster, Coordinator or Worker: frame and byte counters per
// direction, the lane/boxed split, and per-peer barrier-wait
// accounting — how long each shard sat at its network barrier waiting
// for a specific peer's halo frame, which is the number that
// distinguishes a straggler shard from uniform network cost.
// All methods are safe for concurrent use.
type Metrics struct {
	FramesOut, FramesIn atomic.Int64
	BytesOut, BytesIn   atomic.Int64
	LaneFrames          atomic.Int64 // data frames sent on the wire path
	BoxedFrames         atomic.Int64 // data frames sent on the boxed path
	// LaneBytes and BoxedBytes are the bytes of those data frames,
	// headers included.  BytesOut also counts control replies, whose
	// size varies with what they report (trace timings, say).
	LaneBytes, BoxedBytes atomic.Int64
	StaleDrops            atomic.Int64 // frames dropped for a dead run id
	Runs, RunErrors       atomic.Int64
	Rounds                atomic.Int64
	Retries               atomic.Int64 // control requests retried after a transient failure
	Rejoins               atomic.Int64 // plan re-installs onto reconnected workers

	mu    sync.Mutex
	pairs map[pairKey]*PairWait
	hv    *obs.HistogramVec
}

type pairKey struct{ src, dst int32 }

// PairWait accumulates one directed pair's barrier waits: how long
// shard dst waited on shard src's frames.
type PairWait struct {
	Waits    atomic.Int64
	Nanos    atomic.Int64
	MaxNanos atomic.Int64
	hist     *obs.Histogram
}

func (p *PairWait) observe(d time.Duration) {
	n := d.Nanoseconds()
	p.Waits.Add(1)
	p.Nanos.Add(n)
	for {
		old := p.MaxNanos.Load()
		if n <= old || p.MaxNanos.CompareAndSwap(old, n) {
			break
		}
	}
	if p.hist != nil {
		p.hist.Observe(d.Seconds())
	}
}

func (m *Metrics) frameOut(f *frame) {
	n := int64(headerLen + len(f.payload))
	m.FramesOut.Add(1)
	m.BytesOut.Add(n)
	switch f.typ {
	case fLanes:
		m.LaneFrames.Add(1)
		m.LaneBytes.Add(n)
	case fBoxed:
		m.BoxedFrames.Add(1)
		m.BoxedBytes.Add(n)
	}
}

func (m *Metrics) frameIn(f *frame) {
	m.FramesIn.Add(1)
	m.BytesIn.Add(int64(headerLen + len(f.payload)))
}

// pairWait returns the accumulator for "dst waited on src", creating
// it on first use.  Executors cache the pointer per incoming segment,
// so the map lookup is per run, not per round.
func (m *Metrics) pairWait(src, dst int32) *PairWait {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pairs == nil {
		m.pairs = make(map[pairKey]*PairWait)
	}
	k := pairKey{src, dst}
	p := m.pairs[k]
	if p == nil {
		p = &PairWait{}
		if m.hv != nil {
			p.hist = m.hv.With(itoa(src), itoa(dst))
		}
		m.pairs[k] = p
	}
	return p
}

func itoa(v int32) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	n := v
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Register exposes the transport on an obs registry: monotonic frame
// and byte counters, run counters, and a per-peer barrier-wait
// histogram labelled (src, dst).  Call once, before the first run that
// should be visible; pair histograms attach lazily as pairs appear.
func (m *Metrics) Register(reg *obs.Registry) {
	reg.CounterFuncs("anoncover_dist_frames_total",
		"Transport frames by direction.", "direction").
		Add(func() float64 { return float64(m.FramesOut.Load()) }, "out").
		Add(func() float64 { return float64(m.FramesIn.Load()) }, "in")
	reg.CounterFuncs("anoncover_dist_bytes_total",
		"Transport bytes (headers included) by direction.", "direction").
		Add(func() float64 { return float64(m.BytesOut.Load()) }, "out").
		Add(func() float64 { return float64(m.BytesIn.Load()) }, "in")
	reg.CounterFuncs("anoncover_dist_data_frames_total",
		"Halo data frames sent, by delivery path.", "path").
		Add(func() float64 { return float64(m.LaneFrames.Load()) }, "wire").
		Add(func() float64 { return float64(m.BoxedFrames.Load()) }, "boxed")
	reg.CounterFuncs("anoncover_dist_data_bytes_total",
		"Halo data frame bytes (headers included) sent, by delivery path.", "path").
		Add(func() float64 { return float64(m.LaneBytes.Load()) }, "wire").
		Add(func() float64 { return float64(m.BoxedBytes.Load()) }, "boxed")
	reg.CounterFuncs("anoncover_dist_runs_total",
		"Distributed runs by outcome.", "outcome").
		Add(func() float64 { return float64(m.Runs.Load() - m.RunErrors.Load()) }, "ok").
		Add(func() float64 { return float64(m.RunErrors.Load()) }, "error")
	reg.CounterFuncs("anoncover_dist_rounds_total",
		"Rounds executed across all shards.").
		Add(func() float64 { return float64(m.Rounds.Load()) })
	reg.CounterFuncs("anoncover_dist_stale_frames_total",
		"Frames dropped because their run id was no longer live.").
		Add(func() float64 { return float64(m.StaleDrops.Load()) })
	reg.CounterFuncs("anoncover_dist_retries_total",
		"Coordinator control requests retried after a transient transport failure.").
		Add(func() float64 { return float64(m.Retries.Load()) })
	reg.CounterFuncs("anoncover_dist_rejoins_total",
		"Cached shard plans re-shipped to workers that reconnected.").
		Add(func() float64 { return float64(m.Rejoins.Load()) })
	m.mu.Lock()
	m.hv = reg.HistogramVec("anoncover_dist_barrier_wait_seconds",
		"Time a shard spent at its network barrier waiting for one peer's halo frame.",
		obs.ExpBuckets(1e-6, 4, 12), "src", "dst")
	// Pairs recorded before registration keep counting into their
	// atomics; attach histograms for them too.
	for k, p := range m.pairs {
		if p.hist == nil {
			p.hist = m.hv.With(itoa(k.src), itoa(k.dst))
		}
	}
	m.mu.Unlock()
}

// PairWaitStat is one directed pair's barrier-wait summary.
type PairWaitStat struct {
	Src        int32 `json:"src"`
	Dst        int32 `json:"dst"`
	Waits      int64 `json:"waits"`
	TotalNanos int64 `json:"total_nanos"`
	MaxNanos   int64 `json:"max_nanos"`
}

// Snapshot is a point-in-time copy of the counters for /v1/stats and
// the bench harness.
type Snapshot struct {
	FramesOut   int64          `json:"frames_out,omitempty"`
	FramesIn    int64          `json:"frames_in,omitempty"`
	BytesOut    int64          `json:"bytes_out,omitempty"`
	BytesIn     int64          `json:"bytes_in,omitempty"`
	LaneFrames  int64          `json:"lane_frames,omitempty"`
	BoxedFrames int64          `json:"boxed_frames,omitempty"`
	LaneBytes   int64          `json:"lane_bytes,omitempty"`
	BoxedBytes  int64          `json:"boxed_bytes,omitempty"`
	StaleDrops  int64          `json:"stale_drops,omitempty"`
	Runs        int64          `json:"runs,omitempty"`
	RunErrors   int64          `json:"run_errors,omitempty"`
	Rounds      int64          `json:"rounds,omitempty"`
	Retries     int64          `json:"retries,omitempty"`
	Rejoins     int64          `json:"rejoins,omitempty"`
	PairWaits   []PairWaitStat `json:"pair_waits,omitempty"`
}

// SnapshotNow captures the current counter values, pair waits sorted
// by (src, dst).
func (m *Metrics) SnapshotNow() Snapshot {
	s := Snapshot{
		FramesOut: m.FramesOut.Load(), FramesIn: m.FramesIn.Load(),
		BytesOut: m.BytesOut.Load(), BytesIn: m.BytesIn.Load(),
		LaneFrames: m.LaneFrames.Load(), BoxedFrames: m.BoxedFrames.Load(),
		LaneBytes: m.LaneBytes.Load(), BoxedBytes: m.BoxedBytes.Load(),
		StaleDrops: m.StaleDrops.Load(),
		Runs:       m.Runs.Load(), RunErrors: m.RunErrors.Load(),
		Rounds:  m.Rounds.Load(),
		Retries: m.Retries.Load(), Rejoins: m.Rejoins.Load(),
	}
	m.mu.Lock()
	for k, p := range m.pairs {
		s.PairWaits = append(s.PairWaits, PairWaitStat{
			Src: k.src, Dst: k.dst,
			Waits:      p.Waits.Load(),
			TotalNanos: p.Nanos.Load(),
			MaxNanos:   p.MaxNanos.Load(),
		})
	}
	m.mu.Unlock()
	sort.Slice(s.PairWaits, func(i, j int) bool {
		a, b := s.PairWaits[i], s.PairWaits[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return s
}
