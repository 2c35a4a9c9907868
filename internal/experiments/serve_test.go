package experiments

import (
	"net/http"
	"testing"

	"repro/internal/serve"
)

// E12w's warm-beats-cold check must still catch a store that never
// serves a hit: a 1-byte store evicts each result on the next publish,
// so every warm query recomputes, and its median p99 cannot beat the
// cold median.
func TestWarmBeatsColdFailsOnAlwaysMissStore(t *testing.T) {
	boot := func() (http.Handler, error) { return daemon(serve.Config{StoreMaxBytes: 1}) }
	cold, warm, err := serveReplays(boot, e12Replays, e12WarmPasses)
	if err != nil {
		t.Fatal(err)
	}
	if warm.hits != 0 {
		t.Fatalf("always-miss store served %d/%d hits", warm.hits, warm.total)
	}
	if err := warmBeatsCold(warm.p99, cold.p50); err == nil {
		t.Fatalf("median warm p99 %v beat cold p50 %v with no cache hits", warm.p99, cold.p50)
	}
}
