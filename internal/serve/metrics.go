package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/serve/store"
)

// metrics aggregates daemon telemetry with lock-free counters on the
// request path; /metrics serializes a snapshot. Wall-clock values are
// telemetry for operators, never protocol state.
type metrics struct {
	requests atomic.Int64
	failures atomic.Int64
	inflight atomic.Int64
	// timeouts counts requests resolved by deadline expiry or client
	// disconnect (a subset of failures).
	timeouts atomic.Int64

	phaseCount [numPhases]atomic.Int64
	phaseNanos [numPhases]atomic.Int64
}

// observePhase records one finished lifecycle phase.
func (m *metrics) observePhase(phase int, d time.Duration) {
	m.phaseCount[phase].Add(1)
	m.phaseNanos[phase].Add(int64(d))
}

// PhaseStats is one phase's latency aggregate.
type PhaseStats struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
}

// MetricsSnapshot is the /metrics response document.
type MetricsSnapshot struct {
	Instance string `json:"instance"`
	UptimeMs int64  `json:"uptime_ms"`

	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	Inflight int64 `json:"inflight"`
	Timeouts int64 `json:"timeouts"`

	Cache struct {
		store.Counters
		// HitRate is (hits+dedups) / lookups; the serve-smoke CI drill
		// asserts a replayed query file stays above 0.9 on pass two.
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`

	Admission struct {
		Capacity  int64 `json:"capacity"`
		Available int64 `json:"available"`
		Rejected  int64 `json:"rejected"`
	} `json:"admission"`

	Breaker struct {
		Open    int   `json:"open"`
		Tripped int64 `json:"tripped"`
		Refused int64 `json:"refused"`
	} `json:"breaker"`

	Store struct {
		Root string `json:"root"`
		// Degraded mirrors the store's compute-only flag; /readyz
		// carries the reason.
		Degraded bool `json:"degraded"`
		store.Stats
	} `json:"store"`

	Phases map[string]PhaseStats `json:"phases"`
	Jobs   map[string]int        `json:"jobs"`
}

// snapshot assembles the /metrics document from the daemon's parts.
// Scraping it is O(1) in the store size: the footprint comes from the
// store's incrementally maintained counters, never a tree walk.
func (m *metrics) snapshot(st *store.Store, adm *admitter, brk *breaker, jobs *jobTable, instance string, started time.Time) MetricsSnapshot {
	var out MetricsSnapshot
	out.Instance = instance
	out.UptimeMs = time.Since(started).Milliseconds()
	out.Requests = m.requests.Load()
	out.Failures = m.failures.Load()
	out.Inflight = m.inflight.Load()
	out.Timeouts = m.timeouts.Load()

	c := st.Counters()
	out.Cache.Counters = c
	if lookups := c.Hits + c.Dedups + c.Misses; lookups > 0 {
		out.Cache.HitRate = float64(c.Hits+c.Dedups) / float64(lookups)
	}

	out.Admission.Capacity, out.Admission.Available, out.Admission.Rejected = adm.snapshot()
	out.Breaker.Open, out.Breaker.Tripped, out.Breaker.Refused = brk.snapshot()

	out.Store.Root = st.Root()
	out.Store.Degraded = st.Degraded()
	out.Store.Stats = st.Size()

	out.Phases = map[string]PhaseStats{}
	for i := 0; i < numPhases; i++ {
		n := m.phaseCount[i].Load()
		ps := PhaseStats{Count: n}
		if n > 0 {
			ps.MeanNs = m.phaseNanos[i].Load() / n
		}
		out.Phases[phaseNames[i]] = ps
	}
	out.Jobs = jobs.byState()
	return out
}
