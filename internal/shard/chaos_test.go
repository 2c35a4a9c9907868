package shard

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/sim"
)

// The chaos property: a dispatcher running over a seeded random fault
// schedule — transient errors, silent torn writes, clock skew — plus
// an injected mid-shard death, followed by a clean dispatcher
// draining the wreckage, still merges byte-identically to the
// single-process sweep. Every seed is deterministic, so a failure
// reproduces exactly.
func TestDispatchChaosSchedules(t *testing.T) {
	want := baselineMergedBytes(t, testSpec())
	for seed := int64(1); seed <= 4; seed++ {
		m := dispatchPlan(t)
		dir := t.TempDir()
		killAt := int(seed % 3) // 0 = no injected death this seed
		faulty := faultfs.NewFaulty(faultfs.OS(), faultfs.RandomSchedule(seed, 12))
		res, err := Dispatch(context.Background(), m, DispatchOptions{
			Dir:            dir,
			FS:             faulty,
			FailAfterCells: killAt,
			LeaseTTL:       50 * time.Millisecond,
			Poll:           2 * time.Millisecond,
			RetryAttempts:  8,
			RetryBase:      time.Millisecond,
		})
		if killAt > 0 && err == nil {
			t.Fatalf("seed %d: injected death after %d cells did not surface", seed, killAt)
		}
		t.Logf("seed %d: chaos worker err=%v, %s, fired %v", seed, err, res.Counters, faulty.Fired())
		// A clean second worker must drain whatever the chaos worker left:
		// expired leases, torn partials, quarantined artifacts.
		res2, err := Dispatch(context.Background(), m, DispatchOptions{
			Dir: dir, LeaseTTL: time.Nanosecond, Poll: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("seed %d: clean drain after chaos: %v", seed, err)
		}
		t.Logf("seed %d: clean drain %s", seed, res2.Counters)
		if got := mergedQueueBytes(t, dir, m); string(got) != string(want) {
			t.Errorf("seed %d: chaos merge differs from single-process sweep", seed)
		}
	}
}

// Directed fault schedules, one failure mode at a time.

// A silently torn cell write — reported as success, prefix persisted —
// is caught by the checksum on the next attempt's read, quarantined
// and recomputed to the bit-identical artifact.
func TestResumeTornCellWrite(t *testing.T) {
	m, err := Plan(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var c1 Counters
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpWrite, Nth: 1, Path: "cell-", Tear: true, TearAt: 40},
	})
	env := newQueueEnv(faulty, 0, 0, &c1)
	// The tear is silent: this run believes it persisted every cell.
	if _, err := runResumable(context.Background(), m, "s000", 0, dir, 0, env, sim.StopRule{}, nil); err != nil {
		t.Fatalf("torn write must be silent at write time: %v", err)
	}
	if len(faulty.Fired()) != 1 {
		t.Fatalf("tear did not fire: %v", faulty.Fired())
	}
	// The resume catches it: quarantine, recompute, identical output.
	res, counters, err := RunResumable(context.Background(), m, "s000", 0, dir)
	if err != nil {
		t.Fatalf("resume over torn cell: %v", err)
	}
	if counters.Quarantined != 1 {
		t.Errorf("quarantined %d, want 1 (the torn cell)", counters.Quarantined)
	}
	plain, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Points, res.Points) {
		t.Errorf("post-tear resume differs from uninterrupted run")
	}
}

// Transient read and rename errors (the NFS staleness family) are
// absorbed by bounded backoff, counted, and never change the result.
func TestDispatchAbsorbsTransientErrors(t *testing.T) {
	m := dispatchPlan(t)
	dir := t.TempDir()
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpRead, Nth: 1, Err: syscall.ESTALE},
		{Op: faultfs.OpRename, Nth: 1, Err: syscall.EIO},
		{Op: faultfs.OpWrite, Nth: 2, Err: syscall.EINTR},
	})
	res, err := Dispatch(context.Background(), m, DispatchOptions{
		Dir: dir, FS: faulty, RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("transient faults must be absorbed: %v", err)
	}
	if res.Counters.Retries < 3 {
		t.Errorf("retries = %d, want >= 3 (one per injected fault)", res.Counters.Retries)
	}
	if got, want := mergedQueueBytes(t, dir, m), baselineMergedBytes(t, m.Sweep); string(got) != string(want) {
		t.Errorf("merge after transient faults differs from single-process sweep")
	}
}

// A persistent transient error — the filesystem never recovers within
// the retry budget — surfaces as ErrQueueIO, ppsweep's exit code 5,
// not a hang and not a generic failure.
func TestDispatchGivesUpAfterRetryBudget(t *testing.T) {
	m := dispatchPlan(t)
	faults := make([]faultfs.Fault, 20)
	for i := range faults {
		faults[i] = faultfs.Fault{Op: faultfs.OpWrite, Nth: i + 1, Err: syscall.EIO}
	}
	_, err := Dispatch(context.Background(), m, DispatchOptions{
		Dir: t.TempDir(), FS: faultfs.NewFaulty(faultfs.OS(), faults),
		RetryAttempts: 3, RetryBase: time.Millisecond,
	})
	if !errors.Is(err, ErrQueueIO) {
		t.Errorf("want ErrQueueIO after exhausted retry budget, got %v", err)
	}
	if !errors.Is(err, faultfs.ErrRetryExhausted) {
		t.Errorf("want faultfs.ErrRetryExhausted after exhausted retry budget, got %v", err)
	}
}

// The queue's retry policy is faultfs.Retrier's: every absorbed
// transient error is counted, exhaustion wraps both ErrQueueIO and
// faultfs.ErrRetryExhausted, and a permanent error returns at once
// wrapping neither.
func TestQueueRetryPolicy(t *testing.T) {
	var c Counters
	env := newQueueEnv(nil, 3, time.Millisecond, &c)
	calls := 0
	err := env.retry(context.Background(), "flaky", func() error { calls++; return syscall.EIO })
	if !errors.Is(err, ErrQueueIO) || !errors.Is(err, faultfs.ErrRetryExhausted) || !errors.Is(err, syscall.EIO) {
		t.Errorf("exhausted retry: %v, want ErrQueueIO, ErrRetryExhausted and the cause", err)
	}
	if calls != 3 || c.Retries != 2 {
		t.Errorf("%d calls, %d retries counted; want 3 and 2", calls, c.Retries)
	}
	err = env.retry(context.Background(), "denied", func() error { return fs.ErrPermission })
	if !errors.Is(err, fs.ErrPermission) || errors.Is(err, ErrQueueIO) || errors.Is(err, faultfs.ErrRetryExhausted) {
		t.Errorf("permanent error: %v, want it returned as is", err)
	}
	if c.Retries != 2 {
		t.Errorf("permanent error counted as a retry: %d", c.Retries)
	}
}

// A skewed clock — Now() jumping hours between observations — must
// not let a dispatcher rob a live, heartbeating owner: liveness is
// the advancing seq, not any wall-clock arithmetic.
func TestSkewedClockCannotStealLiveLease(t *testing.T) {
	m := dispatchPlan(t)
	dir := t.TempDir()
	id := m.Shards[0].ID
	skewed := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpClock, Nth: 2, Skew: 4 * time.Hour},
	})
	var c Counters
	d := &dispatcher{
		m:        m,
		opts:     DispatchOptions{Dir: dir, LeaseTTL: time.Minute}.withDefaults(),
		env:      newQueueEnv(skewed, 0, 0, &c),
		obs:      make(map[string]leaseObs),
		verified: make(map[string]bool),
		done:     make(map[string]bool),
	}
	ctx := context.Background()
	live := Lease{Shard: id, Token: newToken(), Attempt: 1, Seq: 1, HeartbeatAt: time.Now().UTC().Add(-time.Hour)}
	if err := writeJSONAtomic(LeasePath(dir, id), &live); err != nil {
		t.Fatal(err)
	}
	// First sighting: records (token, seq=1). The clock fault then skews
	// this dispatcher's Now() 4 hours forward.
	if _, state, err := d.tryAcquire(ctx, id); err != nil || state != leaseBusy {
		t.Fatalf("first sighting: state=%v err=%v", state, err)
	}
	// The owner heartbeats (seq advances) — so despite the observer's
	// clock having leapt far past any TTL, the lease must stay busy.
	live.Seq = 2
	if err := writeJSONAtomic(LeasePath(dir, id), &live); err != nil {
		t.Fatal(err)
	}
	if _, state, _ := d.tryAcquire(ctx, id); state != leaseBusy {
		t.Errorf("live lease stolen under clock skew: state=%v", state)
	}
	if c.Steals != 0 {
		t.Errorf("steal counter = %d, want 0", c.Steals)
	}
}

// The live-queue corruption acceptance criterion: garbage planted as
// a completed shard artifact in the queue directory is quarantined
// (with a reason file), the shard recomputed, and the merge is
// byte-identical — never silently merged, never an error, never an
// infinite re-read loop.
func TestDispatchQuarantinesCorruptDoneArtifact(t *testing.T) {
	m := dispatchPlan(t)
	dir := t.TempDir()
	victim := m.Shards[0].ID
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(DonePath(dir, victim), []byte(`{"schema": 1, "points": [{"x"`), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Dispatch(context.Background(), m, DispatchOptions{Dir: dir})
	if err != nil {
		t.Fatalf("dispatch over corrupt done artifact: %v", err)
	}
	if res.Counters.Quarantined != 1 {
		t.Errorf("quarantined %d, want 1", res.Counters.Quarantined)
	}
	qpath := filepath.Join(CorruptDir(dir), filepath.Base(DonePath(dir, victim)))
	if _, err := os.Stat(qpath); err != nil {
		t.Errorf("corrupt artifact not in quarantine: %v", err)
	}
	if _, err := os.Stat(qpath + ".reason"); err != nil {
		t.Errorf("no reason file: %v", err)
	}
	if got, want := mergedQueueBytes(t, dir, m), baselineMergedBytes(t, m.Sweep); string(got) != string(want) {
		t.Errorf("merge after quarantine differs from single-process sweep")
	}
}
