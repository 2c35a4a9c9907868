package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/faultfs"
)

// writeLease seals l and publishes it as a dispatcher would.
func writeLease(t *testing.T, path string, l *Lease) {
	t.Helper()
	data, err := canon.Seal(l, &l.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.AtomicWrite(faultfs.OS(), path, data); err != nil {
		t.Fatal(err)
	}
}

// dispatchSpec is the property-test workload: skewed cell costs (the
// x=16 cells dominate under LinearCost) in a 3-shard cost-weighted
// plan.
func dispatchPlan(t *testing.T) *Manifest {
	t.Helper()
	m, err := PlanCostBlock(testSpec(), 3, LinearCost{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// baselineMergedBytes renders the single-process sweep result through
// the merge path: the byte-level ground truth every dispatch
// interleaving must reproduce.
func baselineMergedBytes(t *testing.T, sw SweepSpec) []byte {
	t.Helper()
	m, err := PlanCostBlock(sw, 1, UniformCost{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge([]*Artifact{art})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mergedQueueBytes merges a drained queue directory.
func mergedQueueBytes(t *testing.T, dir string, m *Manifest) []byte {
	t.Helper()
	arts, err := CollectArtifacts(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(arts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// One dispatcher, no failures: the queue drains and merges
// bit-identically to the single-process sweep.
func TestDispatchDrainsPlan(t *testing.T) {
	m := dispatchPlan(t)
	dir := t.TempDir()
	res, err := Dispatch(context.Background(), m, DispatchOptions{Dir: dir})
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if len(res.Completed) != len(m.Shards) {
		t.Errorf("completed %d shards, want %d", len(res.Completed), len(m.Shards))
	}
	if res.Counters.Steals != 0 || res.Counters.Quarantined != 0 {
		t.Errorf("clean drain reported degradation: %s", res.Counters)
	}
	if got, want := mergedQueueBytes(t, dir, m), baselineMergedBytes(t, m.Sweep); string(got) != string(want) {
		t.Errorf("dispatched merge differs from single-process sweep:\n%s\nvs\n%s", got, want)
	}
	for i := range m.Shards {
		if fileExists(LeasePath(dir, m.Shards[i].ID)) {
			t.Errorf("lease for %s not released", m.Shards[i].ID)
		}
	}
}

// The acceptance-criteria property: kills at every cell boundary,
// resume by the same "host", then redispatch of the remainder by a
// second "host" — every interleaving merges byte-identically to the
// single-process sweep.
func TestDispatchKillResumeRedispatchDeterminism(t *testing.T) {
	want := baselineMergedBytes(t, testSpec())
	for killAt := 1; killAt <= 3; killAt++ {
		m := dispatchPlan(t)
		dir := t.TempDir()
		// Worker 1 "dies" after persisting killAt fresh cells: its lease
		// survives with a frozen heartbeat seq, its partials stay on disk.
		_, err := Dispatch(context.Background(), m, DispatchOptions{Dir: dir, FailAfterCells: killAt})
		if !errors.Is(err, errInjectedFailure) {
			t.Fatalf("killAt=%d: want injected failure, got %v", killAt, err)
		}
		leases := 0
		for i := range m.Shards {
			if fileExists(LeasePath(dir, m.Shards[i].ID)) {
				leases++
			}
		}
		if leases != 1 {
			t.Fatalf("killAt=%d: %d leases after worker death, want exactly the victim's", killAt, leases)
		}
		// Worker 2 observes the dead lease's seq frozen for a (tiny) TTL
		// of its own local time, steals, resumes from the dead worker's
		// partials, and drains the rest.
		res, err := Dispatch(context.Background(), m, DispatchOptions{
			Dir: dir, LeaseTTL: time.Nanosecond, Poll: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("killAt=%d: redispatch: %v", killAt, err)
		}
		if len(res.Completed) != len(m.Shards) {
			t.Errorf("killAt=%d: redispatch completed %d shards, want %d", killAt, len(res.Completed), len(m.Shards))
		}
		if res.Counters.Steals != 1 {
			t.Errorf("killAt=%d: %d steals, want 1 (the victim's shard)", killAt, res.Counters.Steals)
		}
		if got := mergedQueueBytes(t, dir, m); string(got) != string(want) {
			t.Errorf("killAt=%d: kill+resume+redispatch merge differs from single-process sweep", killAt)
		}
	}
}

// Two dispatchers racing on one queue: every shard completes exactly
// once per the done files, leases never wedge, and the merge is still
// byte-identical.
func TestDispatchConcurrentWorkers(t *testing.T) {
	m := dispatchPlan(t)
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	done := make([]*DispatchResult, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			done[w], errs[w] = Dispatch(context.Background(), m, DispatchOptions{Dir: dir, Poll: 5 * time.Millisecond})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if total := len(done[0].Completed) + len(done[1].Completed); total != len(m.Shards) {
		t.Errorf("workers completed %d + %d shards, want %d total",
			len(done[0].Completed), len(done[1].Completed), len(m.Shards))
	}
	if got, want := mergedQueueBytes(t, dir, m), baselineMergedBytes(t, m.Sweep); string(got) != string(want) {
		t.Errorf("concurrent dispatch merge differs from single-process sweep")
	}
}

// A shard that keeps losing its worker exhausts its attempt cap and
// is marked terminally failed; dispatchers report it (wrapped in
// ErrShardsFailed, mapped to its own exit code by ppsweep) instead of
// spinning, and later dispatchers see the marker immediately.
func TestDispatchAttemptCap(t *testing.T) {
	m := dispatchPlan(t)
	dir := t.TempDir()
	victim := m.Shards[0].ID
	stale := Lease{
		Schema:      ManifestSchema,
		Shard:       victim,
		Token:       newToken(),
		Attempt:     3, // the default cap
		HeartbeatAt: time.Now().UTC().Add(-time.Hour),
	}
	if err := os.MkdirAll(PartialsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	writeLease(t, LeasePath(dir, victim), &stale)
	opts := DispatchOptions{Dir: dir, LeaseTTL: 5 * time.Millisecond, Poll: 2 * time.Millisecond}
	_, err := Dispatch(context.Background(), m, opts)
	if err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("want terminal failure naming %s, got %v", victim, err)
	}
	if !errors.Is(err, ErrShardsFailed) {
		t.Errorf("terminal failure not classified as ErrShardsFailed: %v", err)
	}
	if !fileExists(FailedPath(dir, victim)) {
		t.Error("no failed marker written")
	}
	// A second dispatcher trusts the marker and reports the same
	// failure without re-running anything.
	if _, err := Dispatch(context.Background(), m, opts); !errors.Is(err, ErrShardsFailed) || !strings.Contains(err.Error(), victim) {
		t.Errorf("failed marker not honored on rescan: %v", err)
	}
}

// Liveness is observed, never read off a foreign clock: a lease is
// never stolen on first sighting however stale its wall-clock stamps
// look, a (token, seq) frozen for a local TTL is stolen with the
// attempt incremented (the cap holds across dispatcher processes),
// and an advancing seq restarts the observation clock so heartbeating
// owners on skewed clocks are never robbed.
func TestTryAcquireStealIncrementsAttempt(t *testing.T) {
	m := dispatchPlan(t)
	dir := t.TempDir()
	var c Counters
	d := &dispatcher{
		m:        m,
		opts:     DispatchOptions{Dir: dir, LeaseTTL: 5 * time.Millisecond}.withDefaults(),
		env:      newQueueEnv(nil, 0, 0, &c),
		obs:      make(map[string]leaseObs),
		verified: make(map[string]bool),
		done:     make(map[string]bool),
	}
	ctx := context.Background()
	id := m.Shards[0].ID
	stale := Lease{Shard: id, Token: newToken(), Attempt: 1, HeartbeatAt: time.Now().UTC().Add(-time.Hour)}
	writeLease(t, LeasePath(dir, id), &stale)
	if _, state, err := d.tryAcquire(ctx, id); err != nil || state != leaseBusy {
		t.Fatalf("first sighting must be busy (hour-old wall stamp notwithstanding): state=%v err=%v", state, err)
	}
	time.Sleep(10 * time.Millisecond) // > LeaseTTL of local time, seq frozen
	lease, state, err := d.tryAcquire(ctx, id)
	if err != nil || state != leaseAcquired {
		t.Fatalf("steal of expired lease: state=%v err=%v", state, err)
	}
	if lease.Attempt != 2 {
		t.Errorf("stolen lease attempt = %d, want 2", lease.Attempt)
	}
	if c.Steals != 1 {
		t.Errorf("steal counter = %d, want 1", c.Steals)
	}
	// An owner that keeps heartbeating — advancing seq — is never
	// stolen, because each new (token, seq) restarts the local clock.
	live := Lease{Shard: id, Token: newToken(), Attempt: 1, Seq: 1, HeartbeatAt: time.Now().UTC()}
	writeLease(t, LeasePath(dir, id), &live)
	if _, state, _ := d.tryAcquire(ctx, id); state != leaseBusy {
		t.Errorf("fresh (token, seq) stolen on first sight: state=%v", state)
	}
	time.Sleep(10 * time.Millisecond)
	live.Seq = 2 // heartbeat arrived
	writeLease(t, LeasePath(dir, id), &live)
	if _, state, _ := d.tryAcquire(ctx, id); state != leaseBusy {
		t.Errorf("heartbeating lease stolen: state=%v", state)
	}
}

// Cancelling the dispatcher context stops the scan promptly and
// reports the cancellation.
func TestDispatchCancelled(t *testing.T) {
	m := dispatchPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Dispatch(ctx, m, DispatchOptions{Dir: t.TempDir()}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// fileExists reports whether path exists on the real filesystem.
func fileExists(path string) bool {
	_, err := faultfs.OS().Stat(path)
	return err == nil
}
