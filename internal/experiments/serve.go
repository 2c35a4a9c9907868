package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

// E12/E12w measure the ppserve daemon's replay behavior: E12 replays
// a mixed simulate/verify/bounds query file against cold daemons
// (every query computes and persists), E12w replays the same mix
// against each daemon again once its store is warm (every query is an
// O(1) content-addressed lookup). Both replay on e12Replays fresh
// daemons and report medians over the replays; E12w runs each
// daemon's cold and warm replays back to back, so its warm-beats-cold
// check compares samples taken under the same host load, and one
// descheduled burst on a shared host cannot decide it.

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

// e12Replays is how many fresh daemons E12 and E12w replay the mix
// on: each claim is judged on medians over the replays.
const e12Replays = 5

// freshDaemon boots a daemon over a fresh throwaway store.
func freshDaemon() (http.Handler, error) {
	return daemon(serve.Config{})
}

// daemon boots a daemon with cfg over a fresh throwaway store.
func daemon(cfg serve.Config) (http.Handler, error) {
	dir, err := os.MkdirTemp("", "ppbench-serve-")
	if err != nil {
		return nil, err
	}
	cfg.StoreDir = dir
	s, err := serve.New(cfg)
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

// replayStats summarizes replays: medians over the replays of each
// replay's p50 and p99, and cache hits out of the queries posted.
type replayStats struct {
	p50, p99    time.Duration
	hits, total int
}

// serveReplays boots r daemons from boot and on each replays the mix
// once cold, then warmPasses times over the same (now warm) store.
func serveReplays(boot func() (http.Handler, error), r, warmPasses int) (cold, warm replayStats, err error) {
	var coldP50s, coldP99s, warmP50s, warmP99s []time.Duration
	for i := 0; i < r; i++ {
		h, err := boot()
		if err != nil {
			return cold, warm, err
		}
		lats, hits, err := replayMix(h)
		if err != nil {
			return cold, warm, err
		}
		coldP50s = append(coldP50s, percentile(lats, 50))
		coldP99s = append(coldP99s, percentile(lats, 99))
		cold.hits += hits
		cold.total += len(serveMix)
		if warmPasses == 0 {
			continue
		}
		var warmLats []time.Duration
		for pass := 0; pass < warmPasses; pass++ {
			lats, hits, err := replayMix(h)
			if err != nil {
				return cold, warm, err
			}
			warmLats = append(warmLats, lats...)
			warm.hits += hits
			warm.total += len(serveMix)
		}
		warmP50s = append(warmP50s, percentile(warmLats, 50))
		warmP99s = append(warmP99s, percentile(warmLats, 99))
	}
	cold.p50, cold.p99 = percentile(coldP50s, 50), percentile(coldP99s, 50)
	warm.p50, warm.p99 = percentile(warmP50s, 50), percentile(warmP99s, 50)
	return cold, warm, nil
}

// warmBeatsCold is E12w's latency claim: the warm tail beats the cold
// median.
func warmBeatsCold(warmP99, coldP50 time.Duration) error {
	if warmP99 >= coldP50 {
		return fmt.Errorf("warm p99 %v did not beat cold p50 %v", warmP99, coldP50)
	}
	return nil
}

// E12ServeReplayCold replays the mix against e12Replays cold daemons:
// every query computes and persists. Each replay boots a fresh store,
// so the experiment is re-runnable.
func E12ServeReplayCold() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "ppserve query replay: cold daemon, every query computes",
		Claim:  "a fresh store answers no query from cache; every result is computed once and persisted",
		Header: []string{"pass", "queries", "cache hits", "p50", "p99"},
	}
	cold, _, err := serveReplays(freshDaemon, e12Replays, 0)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, cold.row(fmt.Sprintf("cold ×%d", e12Replays)))
	if cold.hits != 0 {
		t.Verdict = fmt.Sprintf("FAIL: %d cache hits against a cold store", cold.hits)
		return t, fmt.Errorf("E12: %s", t.Verdict)
	}
	t.Verdict = fmt.Sprintf("replayed %d mixed queries cold on %d fresh daemons: 0 cache hits, all computed and persisted",
		len(serveMix), e12Replays)
	return t, nil
}

// row renders the stats as an E12/E12w table row.
func (s replayStats) row(pass string) []string {
	return []string{pass, fmt.Sprintf("%d", s.total), fmt.Sprintf("%d", s.hits),
		s.p50.Round(time.Microsecond).String(), s.p99.Round(time.Microsecond).String()}
}

// e12WarmPasses is the pass count of one E12w warm replay: enough
// samples for a p99 over the mix.
const e12WarmPasses = 16

// E12wServeReplayWarm replays the mix cold and then warm on each of
// e12Replays daemons: every warm query must hit, and the median warm
// p99 must beat the median cold p50 — the "repeated queries are O(1)
// lookups" acceptance gap.
func E12wServeReplayWarm() (*Table, error) {
	t := &Table{
		ID:     "E12w",
		Title:  "ppserve query replay: warm store, every query is a lookup",
		Claim:  "a warmed store serves the identical mix entirely from cache, far below cold compute latency",
		Header: []string{"pass", "queries", "cache hits", "p50", "p99"},
	}
	cold, warm, err := serveReplays(freshDaemon, e12Replays, e12WarmPasses)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		cold.row(fmt.Sprintf("cold ×%d", e12Replays)),
		warm.row(fmt.Sprintf("warm ×%d×%d", e12Replays, e12WarmPasses)))
	if warm.hits != warm.total {
		t.Verdict = fmt.Sprintf("FAIL: only %d/%d warm queries hit the cache", warm.hits, warm.total)
		return t, fmt.Errorf("E12w: %s", t.Verdict)
	}
	if raceEnabled {
		// The detector's overhead swamps the cold/warm gap on a small
		// host, so only the hit check above holds under it.
		t.Verdict = fmt.Sprintf("100%% cache hits over %d warm passes; median warm p99 %v vs cold p50 %v not compared under the race detector",
			e12Replays*e12WarmPasses, warm.p99.Round(time.Microsecond), cold.p50.Round(time.Microsecond))
		return t, nil
	}
	if err := warmBeatsCold(warm.p99, cold.p50); err != nil {
		t.Verdict = "FAIL: median " + err.Error()
		return t, fmt.Errorf("E12w: %s", t.Verdict)
	}
	t.Verdict = fmt.Sprintf("100%% cache hits over %d warm passes; median warm p99 %v < median cold p50 %v",
		e12Replays*e12WarmPasses, warm.p99.Round(time.Microsecond), cold.p50.Round(time.Microsecond))
	return t, nil
}
