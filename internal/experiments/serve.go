package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// E12/E12w measure the ppserve daemon's replay behavior: E12 replays
// a mixed simulate/verify/bounds query file against a cold daemon
// (every query computes and persists), E12w replays the same mix
// against the now-warm store many times (every query is an O(1)
// content-addressed lookup). The two share one daemon via
// serveEnv, so in an all-experiments run E12's cold pass doubles as
// E12w's prewarm and E12w's ns_op in the timing artifact is pure
// warm-path cost — the cold/warm latency gap in BENCH_PR8.json is
// the E12 vs E12w row pair. Run standalone, E12w warms the store
// itself first.

// serveQuery is one replayed request.
type serveQuery struct {
	path, body string
}

// serveMix is the replayed query mix: cheap but covering all three
// endpoints, with no two lines sharing a cache key.
var serveMix = []serveQuery{
	{"/v1/simulate", `{"spec":{"protocol":"flock","param":4},"x":6,"trials":3,"seed":11,"max_steps":50000}`},
	{"/v1/simulate", `{"spec":{"protocol":"example42","param":3},"x":5,"trials":2,"seed":1,"max_steps":50000}`},
	{"/v1/simulate", `{"spec":{"protocol":"majority","param":0},"x":9,"y":6,"trials":2,"seed":5,"max_steps":50000}`},
	{"/v1/verify", `{"spec":{"protocol":"flock","param":2},"max_x":4,"budget":200000}`},
	{"/v1/bounds", `{"op":"rackoff"}`},
	{"/v1/bounds", `{"op":"section8"}`},
	{"/v1/bounds", `{"op":"minstates"}`},
	{"/v1/bounds", `{"op":"thm43","d":6}`},
	{"/v1/bounds", `{"op":"cor44","kmax":10}`},
}

// serveEnv is the warmed daemon E12's cold pass hands to E12w.
var serveEnv struct {
	mu      sync.Mutex
	handler http.Handler
	coldP50 time.Duration
	coldP99 time.Duration
}

// freshDaemon boots a daemon over a fresh throwaway store.
func freshDaemon() (http.Handler, error) {
	dir, err := os.MkdirTemp("", "ppbench-serve-")
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{StoreDir: dir})
	if err != nil {
		return nil, err
	}
	return s.Handler(), nil
}

// replayMix posts every mix query once, returning per-query latencies
// and the cache-hit count.
func replayMix(h http.Handler) ([]time.Duration, int, error) {
	lats := make([]time.Duration, 0, len(serveMix))
	hits := 0
	for _, q := range serveMix {
		req := httptest.NewRequest("POST", q.path, strings.NewReader(q.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lats = append(lats, time.Since(start))
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("%s: %d %s", q.path, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("X-Cache") == "hit" {
			hits++
		}
	}
	return lats, hits, nil
}

// percentile returns the p-th percentile (nearest-rank) of lats.
func percentile(lats []time.Duration, p int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := p * len(sorted) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// warmEnv returns the shared warmed daemon, booting and cold-replaying
// a fresh one when E12 has not run in this process (standalone E12w).
func warmEnv() (http.Handler, time.Duration, time.Duration, error) {
	serveEnv.mu.Lock()
	defer serveEnv.mu.Unlock()
	if serveEnv.handler == nil {
		h, err := freshDaemon()
		if err != nil {
			return nil, 0, 0, err
		}
		lats, _, err := replayMix(h)
		if err != nil {
			return nil, 0, 0, err
		}
		serveEnv.handler = h
		serveEnv.coldP50 = percentile(lats, 50)
		serveEnv.coldP99 = percentile(lats, 99)
	}
	return serveEnv.handler, serveEnv.coldP50, serveEnv.coldP99, nil
}

// E12ServeReplayCold replays the mix against a cold daemon: every
// query computes, persists, and seeds the store E12w then reads.
// Each run boots a fresh store, so the experiment is re-runnable; the
// warmed daemon it leaves behind becomes E12w's environment.
func E12ServeReplayCold() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "ppserve query replay: cold daemon, every query computes",
		Claim:  "a fresh store answers no query from cache; every result is computed once and persisted",
		Header: []string{"pass", "queries", "cache hits", "p50", "p99"},
	}
	h, err := freshDaemon()
	if err != nil {
		return nil, err
	}
	lats, hits, err := replayMix(h)
	if err != nil {
		return nil, err
	}
	p50, p99 := percentile(lats, 50), percentile(lats, 99)
	serveEnv.mu.Lock()
	serveEnv.handler = h
	serveEnv.coldP50, serveEnv.coldP99 = p50, p99
	serveEnv.mu.Unlock()
	t.Rows = append(t.Rows, []string{
		"cold", fmt.Sprintf("%d", len(serveMix)), fmt.Sprintf("%d", hits),
		p50.Round(time.Microsecond).String(), p99.Round(time.Microsecond).String(),
	})
	if hits != 0 {
		t.Verdict = fmt.Sprintf("FAIL: %d cache hits against a cold store", hits)
		return t, fmt.Errorf("E12: %s", t.Verdict)
	}
	t.Verdict = fmt.Sprintf("replayed %d mixed queries cold: 0 cache hits, all computed and persisted", len(serveMix))
	return t, nil
}

// e12WarmPasses is E12w's warm replay count: enough samples for a
// stable p99 over the mix, while keeping E12w's total wall time below
// E12's single cold pass — so the cold/warm gap shows up directly in
// the BENCH_PR8.json ns_op pair as well as in the per-query table.
const e12WarmPasses = 16

// E12wServeReplayWarm replays the mix against the warm store: every
// query must hit, and the warm tail must beat the cold median — the
// "repeated queries are O(1) lookups" acceptance gap.
func E12wServeReplayWarm() (*Table, error) {
	t := &Table{
		ID:     "E12w",
		Title:  "ppserve query replay: warm store, every query is a lookup",
		Claim:  "a warmed store serves the identical mix entirely from cache, far below cold compute latency",
		Header: []string{"pass", "queries", "cache hits", "p50", "p99"},
	}
	h, coldP50, coldP99, err := warmEnv()
	if err != nil {
		return nil, err
	}
	var lats []time.Duration
	hits, total := 0, 0
	for pass := 0; pass < e12WarmPasses; pass++ {
		l, hitN, err := replayMix(h)
		if err != nil {
			return nil, err
		}
		lats = append(lats, l...)
		hits += hitN
		total += len(serveMix)
	}
	p50, p99 := percentile(lats, 50), percentile(lats, 99)
	t.Rows = append(t.Rows,
		[]string{"cold", fmt.Sprintf("%d", len(serveMix)), "0",
			coldP50.Round(time.Microsecond).String(), coldP99.Round(time.Microsecond).String()},
		[]string{fmt.Sprintf("warm ×%d", e12WarmPasses), fmt.Sprintf("%d", total), fmt.Sprintf("%d", hits),
			p50.Round(time.Microsecond).String(), p99.Round(time.Microsecond).String()},
	)
	if hits != total {
		t.Verdict = fmt.Sprintf("FAIL: only %d/%d warm queries hit the cache", hits, total)
		return t, fmt.Errorf("E12w: %s", t.Verdict)
	}
	if raceEnabled {
		// The detector's overhead swamps the cold/warm gap on a small
		// host, so only the hit check above holds under it.
		t.Verdict = fmt.Sprintf("100%% cache hits over %d warm replays; warm p99 %v vs cold p50 %v not compared under the race detector",
			e12WarmPasses, p99.Round(time.Microsecond), coldP50.Round(time.Microsecond))
		return t, nil
	}
	if p99 >= coldP50 {
		t.Verdict = fmt.Sprintf("FAIL: warm p99 %v did not beat cold p50 %v", p99, coldP50)
		return t, fmt.Errorf("E12w: %s", t.Verdict)
	}
	t.Verdict = fmt.Sprintf("100%% cache hits over %d warm replays; warm p99 %v < cold p50 %v",
		e12WarmPasses, p99.Round(time.Microsecond), coldP50.Round(time.Microsecond))
	return t, nil
}
