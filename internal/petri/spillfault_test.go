// Fault injection against the out-of-core closure: spill-layer
// failures (disk full, torn or rotted bucket files) must come back
// from Reach as typed, inspectable errors — never a process crash,
// never a silently wrong closure.
package petri_test

import (
	"errors"
	"syscall"
	"testing"

	"repro/internal/conf"
	"repro/internal/faultfs"
	"repro/internal/petri"
)

// spillInstance is an unbounded pump net (a → a+b): the closure's
// size is whatever the budget allows, so it comfortably outgrows a
// tiny spill threshold and bucket I/O genuinely happens.
func spillInstance(t *testing.T) (*petri.Net, conf.Config) {
	t.Helper()
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	pump, err := petri.NewTransition("pump", u("a"), u("a").Add(u("b")))
	if err != nil {
		t.Fatal(err)
	}
	net, err := petri.New(space, []petri.Transition{pump})
	if err != nil {
		t.Fatal(err)
	}
	return net, u("a")
}

// A full disk mid-exploration surfaces as a returned *conf.SpillError
// wrapping ENOSPC, with the partial spill files released — the
// degraded path of the failure matrix, exercised without a real
// broken disk.
func TestReachSpillDiskFullReturnsError(t *testing.T) {
	net, from := spillInstance(t)
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpWrite, Path: ".spill", Nth: 1, Err: syscall.ENOSPC},
	})
	rs, err := net.Reach(from, petri.Budget{
		MaxConfigs: 1 << 14, SpillDir: t.TempDir(), SpillThreshold: 8 << 10, SpillFS: faulty,
	})
	if err == nil {
		t.Fatal("disk-full spill did not surface as an error")
	}
	var se *conf.SpillError
	if !errors.As(err, &se) || !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("want *conf.SpillError wrapping ENOSPC, got %v", err)
	}
	if rs != nil {
		t.Error("failed exploration returned a ReachSet")
	}
	if len(faulty.Fired()) != 1 {
		t.Errorf("fault log %v, want exactly the injected ENOSPC", faulty.Fired())
	}
}

// A bucket read that keeps failing transiently (the injected error is
// visible to Reach as whatever the filesystem reports) also comes
// back typed rather than crashing the serial driver goroutine.
func TestReachSpillReadErrorReturnsError(t *testing.T) {
	net, from := spillInstance(t)
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpRead, Path: ".spill", Nth: 1, Err: syscall.EIO},
	})
	rs, err := net.Reach(from, petri.Budget{
		MaxConfigs: 1 << 14, SpillDir: t.TempDir(), SpillThreshold: 8 << 10, SpillFS: faulty,
	})
	if rs != nil {
		defer rs.Release()
	}
	// Whether the injected read is reached depends on eviction traffic
	// (bucket loads only happen on cold probes); if it fired, the error
	// must be the typed one, never a crash.
	var se *conf.SpillError
	if errors.As(err, &se) {
		if rs != nil {
			t.Error("failed exploration returned a ReachSet")
		}
		return
	}
	if len(faulty.Fired()) > 0 {
		t.Fatalf("bucket read fault fired but Reach reported %v", err)
	}
	t.Skip("no bucket read occurred this run; the verify path is covered by the conf-level tests")
}

// Lazy growth keeps the same recovery point: a full disk hit by one
// Grow comes back from that Grow as the typed error, and growth ends.
func TestGrowSpillDiskFullReturnsError(t *testing.T) {
	net, from := spillInstance(t)
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpWrite, Path: ".spill", Nth: 1, Err: syscall.ENOSPC},
	})
	rs, err := net.StartReach(from, petri.Budget{
		MaxConfigs: 1 << 14, SpillDir: t.TempDir(), SpillThreshold: 8 << 10, SpillFS: faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Release()
	levels := 0
	for done := false; !done; levels++ {
		done, err = rs.Grow()
	}
	var se *conf.SpillError
	if !errors.As(err, &se) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("after %d levels: want *conf.SpillError wrapping ENOSPC, got %v", levels, err)
	}
	if done, err := rs.Grow(); !done || err != nil {
		t.Errorf("Grow after the failure = %v, %v; want a no-op", done, err)
	}
}
