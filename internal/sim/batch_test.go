package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
)

// sweep runs trials [lo, hi) of every size in xs as one SweepCells
// call, one cell per size, and collects the points in the order of xs.
func sweep(ctx context.Context, p *core.Protocol, inputState string, xs []int64, expected func(x int64) bool, lo, hi int, opts Options) ([]SweepPoint, error) {
	cells := make([]Cell, len(xs))
	for i, x := range xs {
		cells[i] = Cell{X: x, TrialLo: lo, TrialHi: hi}
	}
	out := make([]SweepPoint, len(xs))
	err := SweepCells(ctx, p, inputState, cells, expected, opts, func(i int, st Stats) error {
		out[i] = SweepPoint{X: xs[i], Stats: st}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runRange runs trials [lo, hi) of one input as a single cell of the
// trial pool, seeded as RunMany seeds them.
func runRange(ctx context.Context, p *core.Protocol, input conf.Config, expected bool, lo, hi int, opts Options) (*Stats, error) {
	cell := poolCell{initial: p.InitialConfig(input), seed: opts.Seed, expected: expected, lo: lo, hi: hi}
	var stats Stats
	err := runCells(ctx, p, []poolCell{cell}, opts, func(_ int, st Stats) error {
		stats = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &stats, nil
}

func TestSweep(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	xs := []int64{2, 4, 8, 16}
	points, err := sweep(context.Background(), p, "i", xs, func(x int64) bool { return x >= 4 }, 0, 5,
		Options{Seed: 1, MaxSteps: 200_000, StablePatience: 1_000})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(points) != len(xs) {
		t.Fatalf("points = %d, want %d", len(points), len(xs))
	}
	for i, pt := range points {
		if pt.X != xs[i] {
			t.Errorf("point %d: X = %d, want %d (order must be preserved)", i, pt.X, xs[i])
		}
		if pt.Stats.Converged != 5 || pt.Stats.Correct != 5 {
			t.Errorf("x=%d: %d/%d correct of %d converged",
				pt.X, pt.Stats.Correct, pt.Stats.Trials, pt.Stats.Converged)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	p, err := counting.FlockOfBirds(3)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	run := func() []SweepPoint {
		pts, err := sweep(context.Background(), p, "i", []int64{3, 6}, func(x int64) bool { return x >= 3 }, 0, 3,
			Options{Seed: 9, MaxSteps: 100_000, StablePatience: 500})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return pts
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep not deterministic across runs")
	}
}

// Sweeps over trial blocks must emit partial points that merge — per
// size, in trial order — into exactly the full sweep's result, and
// the per-size seed derivation must not depend on which sizes a call
// covers.
func TestSweepRangeMergesToSweep(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	xs := []int64{3, 4, 9}
	expected := func(x int64) bool { return x >= 4 }
	opts := Options{Seed: 5, MaxSteps: 200_000, StablePatience: 1_000}
	const trials = 6
	whole, err := sweep(context.Background(), p, "i", xs, expected, 0, trials, opts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// Split by trial block.
	lo, err := sweep(context.Background(), p, "i", xs, expected, 0, 2, opts)
	if err != nil {
		t.Fatalf("sweep[0,2): %v", err)
	}
	hi, err := sweep(context.Background(), p, "i", xs, expected, 2, trials, opts)
	if err != nil {
		t.Fatalf("sweep[2,6): %v", err)
	}
	for i := range xs {
		merged := lo[i].Stats
		merged.Merge(hi[i].Stats)
		if merged != whole[i].Stats {
			t.Errorf("x=%d: merged %+v != whole %+v", xs[i], merged, whole[i].Stats)
		}
	}
	// Split by size: a call covering one size must reproduce that size's
	// point exactly.
	for i, x := range xs {
		solo, err := sweep(context.Background(), p, "i", []int64{x}, expected, 0, trials, opts)
		if err != nil {
			t.Fatalf("sweep x=%d: %v", x, err)
		}
		if solo[0] != whole[i] {
			t.Errorf("x=%d: solo %+v != whole %+v", x, solo[0], whole[i])
		}
	}
}

func TestSweepCancelled(t *testing.T) {
	p, err := counting.FlockOfBirds(3)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweep(ctx, p, "i", []int64{3, 6}, func(int64) bool { return true }, 0, 3, Options{}); err != context.Canceled {
		t.Errorf("pre-cancelled sweep err = %v, want context.Canceled", err)
	}
}

func TestSweepEmpty(t *testing.T) {
	p, err := counting.FlockOfBirds(3)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	if _, err := sweep(context.Background(), p, "i", nil, func(int64) bool { return true }, 0, 1, Options{}); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestSweepBadInputState(t *testing.T) {
	p, err := counting.FlockOfBirds(3)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	if _, err := sweep(context.Background(), p, "nope", []int64{1}, func(int64) bool { return true }, 0, 1, Options{}); err == nil {
		t.Error("bad input state accepted")
	}
}
