package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
)

// The trial pool against the serial reference: for every worker count,
// scheduler and cell shape — sizes repeated and interleaved, cells of
// one trial and of many — SweepCells delivers every cell once, in plan
// order, with the reference's Stats.
func TestPoolMatchesSerialReference(t *testing.T) {
	p, n, err := registry.Make("flock", 4)
	if err != nil {
		t.Fatal(err)
	}
	expected := func(x int64) bool { return x >= n }
	small := []Cell{
		{X: 9, TrialLo: 0, TrialHi: 1}, {X: 3, TrialLo: 2, TrialHi: 9},
		{X: 9, TrialLo: 1, TrialHi: 6}, {X: 40, TrialLo: 0, TrialHi: 1},
		{X: 3, TrialLo: 0, TrialHi: 2}, {X: 17, TrialLo: 5, TrialHi: 12},
	}
	large := []Cell{
		{X: 20_000, TrialLo: 0, TrialHi: 1}, {X: 3_000, TrialLo: 0, TrialHi: 3},
		{X: 20_000, TrialLo: 1, TrialHi: 3}, {X: 3, TrialLo: 0, TrialHi: 2},
	}
	cases := []struct {
		sched Scheduler
		cells []Cell
	}{
		{Weighted{}, small},
		{CountBatched{}, large},
		{Auto{}, large},
	}
	for _, tc := range cases {
		opts := Options{Seed: 13, MaxSteps: 1 << 22, StablePatience: 1_000, Scheduler: tc.sched}
		want, err := referenceSweepCells(p, "i", tc.cells, expected, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			o := opts
			o.Workers = workers
			var order []int
			got := make([]Stats, len(tc.cells))
			err := SweepCells(context.Background(), p, "i", tc.cells, expected, o, func(i int, st Stats) error {
				order = append(order, i)
				got[i] = st
				return nil
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.sched.Name(), workers, err)
			}
			for i := range tc.cells {
				if i >= len(order) || order[i] != i {
					t.Fatalf("%s workers=%d: delivery order %v, want plan order", tc.sched.Name(), workers, order)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: stats\n%+v\nreference\n%+v", tc.sched.Name(), workers, got, want)
			}
		}
	}
}

// countingScheduler wraps a scheduler and records the most Step calls
// ever in flight at once, across every stepper it attached.
type countingScheduler struct {
	inner    Scheduler
	cur, max *atomic.Int64
}

func (s countingScheduler) Name() string { return s.inner.Name() }

func (s countingScheduler) Attach(st *State) (Stepper, error) {
	inner, err := s.inner.Attach(st)
	if err != nil {
		return nil, err
	}
	return countingStepper{inner, s}, nil
}

type countingStepper struct {
	inner Stepper
	s     countingScheduler
}

func (c countingStepper) Step(rng *RNG, limit int) (int, bool) {
	now := c.s.cur.Add(1)
	for {
		old := c.s.max.Load()
		if now <= old || c.s.max.CompareAndSwap(old, now) {
			break
		}
	}
	defer c.s.cur.Add(-1)
	return c.inner.Step(rng, limit)
}

// Options.Workers bounds the trials in flight across a whole sweep, not
// per point: a multi-size sweep with Workers w never steps more than w
// runs at once, whatever GOMAXPROCS is.
func TestPoolWorkersBoundTotal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p, n, err := registry.Make("flock", 4)
	if err != nil {
		t.Fatal(err)
	}
	xs := []int64{1_000, 1_500, 2_000, 2_500}
	for _, workers := range []int{1, 2} {
		sched := countingScheduler{inner: Weighted{}, cur: new(atomic.Int64), max: new(atomic.Int64)}
		opts := Options{Seed: 5, MaxSteps: 1 << 20, Scheduler: sched, Workers: workers}
		if _, err := SweepRange(context.Background(), p, "i", xs, func(x int64) bool { return x >= n }, 0, 6, opts); err != nil {
			t.Fatal(err)
		}
		if got := sched.max.Load(); got > int64(workers) {
			t.Errorf("Workers=%d: %d Step calls in flight at once", workers, got)
		}
	}
}

// Cancelling the context mid-sweep — every worker inside a trial that
// would otherwise run for 2³⁰ interactions — returns ctx.Err() promptly
// and delivers nothing further.
func TestPoolCancelMidRun(t *testing.T) {
	p, in := flipFlop(t, 64)
	cells := []poolCell{
		{initial: p.InitialConfig(in), seed: 1, lo: 0, hi: 4},
		{initial: p.InitialConfig(in), seed: 2, lo: 0, hi: 4},
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- runCells(ctx, p, cells, Options{MaxSteps: 1 << 30, Workers: 3}, func(int, Stats) error {
			return errors.New("no cell should complete")
		})
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("returned %v after cancellation", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not return after cancellation")
	}
}

// An error from deliver stops the pool: no later cell is delivered and
// the error comes back as is.
func TestPoolDeliverErrorStops(t *testing.T) {
	p, n, err := registry.Make("flock", 4)
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for x := int64(2); x < 14; x++ {
		cells = append(cells, Cell{X: x, TrialLo: 0, TrialHi: 2})
	}
	stop := errors.New("stop")
	for _, workers := range []int{1, 2, 8} {
		delivered := 0
		err := SweepCells(context.Background(), p, "i", cells, func(x int64) bool { return x >= n },
			Options{Seed: 3, MaxSteps: 200_000, StablePatience: 1_000, Workers: workers},
			func(i int, _ Stats) error {
				delivered++
				if i == 2 {
					return stop
				}
				return nil
			})
		if err != stop {
			t.Errorf("workers=%d: err = %v, want the deliver error", workers, err)
		}
		if delivered != 3 {
			t.Errorf("workers=%d: %d cells delivered, want 3", workers, delivered)
		}
	}
}
