package sim

import (
	"context"
	"testing"

	"repro/internal/counting"
)

// The span-parallel multinomial draw must be byte-identical for every
// worker count: spans are fixed by the transition list and per-span
// streams are derived positionally, so workers only schedule work.
// flock(27) has 378 transitions (> spanSize), so the span path
// genuinely engages; x is large enough that batching dominates.
func TestCountBatchedDeterministicAcrossWorkers(t *testing.T) {
	p, err := counting.FlockOfBirds(27)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	if nt := p.Net().Len(); nt <= spanSize {
		t.Fatalf("flock(27) has %d transitions; test needs > %d to engage the span draw", nt, spanSize)
	}
	input, err := p.Input(map[string]int64{"i": 200_000})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	for _, mk := range []func(w int) Scheduler{
		func(w int) Scheduler { return CountBatched{Workers: w} },
		func(w int) Scheduler { return Auto{Workers: w} },
	} {
		var ref *Result
		for _, workers := range []int{1, 2, 4, 8} {
			sched := mk(workers)
			res, err := Run(p, input, Options{
				Seed: 99, MaxSteps: 1 << 22, Scheduler: sched,
			})
			if err != nil {
				t.Fatalf("%s w=%d: %v", sched.Name(), workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Steps != ref.Steps || res.LastChange != ref.LastChange ||
				res.Converged != ref.Converged || res.Deadlocked != ref.Deadlocked ||
				!res.Final.Equal(ref.Final) {
				t.Errorf("%s w=%d diverged from w=1: steps %d vs %d, lastChange %d vs %d, final %v vs %v",
					sched.Name(), workers, res.Steps, ref.Steps, res.LastChange, ref.LastChange, res.Final, ref.Final)
			}
		}
	}
}

// Aggregated sweep statistics must likewise be independent of both the
// trial-pool worker count and the scheduler's draw workers.
func TestCountBatchedSweepDeterministicAcrossWorkers(t *testing.T) {
	p, err := counting.FlockOfBirds(27)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 50_000})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	var ref *Stats
	for _, workers := range []int{1, 2, 4, 8} {
		stats, err := RunMany(context.Background(), p, input, true, 6, Options{
			Seed: 7, MaxSteps: 1 << 22, Workers: workers,
			Scheduler: CountBatched{Workers: workers},
		})
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if ref == nil {
			ref = stats
			continue
		}
		if *stats != *ref {
			t.Errorf("w=%d stats %+v, w=1 stats %+v", workers, *stats, *ref)
		}
	}
}

// Auto's exact-phase state is per run: a trial-pool worker reusing one
// stepper across trials starts each trial afresh, so sweep statistics
// equal those of fresh per-trial runs for every worker count. The
// patience makes every run end inside an exact phase, the state a
// reused stepper would otherwise carry into the next trial.
func TestAutoSweepDeterministicAcrossWorkers(t *testing.T) {
	p, err := counting.FlockOfBirds(8)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 100_000})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	const trials = 16
	opts := Options{Seed: 9, MaxSteps: 1 << 26, StablePatience: 2000, Scheduler: Auto{Workers: 1}}
	var want Stats
	for tr := 0; tr < trials; tr++ {
		o := opts
		o.Seed = DeriveSeed(opts.Seed, tr)
		res, err := Run(p, input, o)
		if err != nil {
			t.Fatal(err)
		}
		want.Observe(res, true)
	}
	for _, workers := range []int{1, 2, 4} {
		o := opts
		o.Workers = workers
		got, err := RunMany(context.Background(), p, input, true, trials, o)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if *got != want {
			t.Errorf("w=%d stats %+v, fresh per-trial runs %+v", workers, *got, want)
		}
	}
}

// The hybrid scheduler must agree with the exact weighted scheduler on
// what the protocols compute: the same cross-validation CountBatched
// passes, on a protocol mixing collapse phases (where Auto's exact
// backoff engages) with batchable expansion phases.
func TestAutoMatchesWeightedStats(t *testing.T) {
	p, err := counting.FlockOfBirds(8)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 5_000})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	runWith := func(sched Scheduler) *Stats {
		stats, err := RunMany(context.Background(), p, input, true, 5, Options{
			Seed: 5, MaxSteps: 1 << 22, Scheduler: sched,
		})
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if stats.Converged != 5 || stats.Correct != 5 {
			t.Fatalf("%s: correct %d/5, converged %d/5", sched.Name(), stats.Correct, stats.Converged)
		}
		return stats
	}
	w, a := runWith(Weighted{}), runWith(Auto{})
	if ratio := a.MeanSteps() / w.MeanSteps(); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("MeanSteps auto %.0f vs weighted %.0f (ratio %.3f, want within 10%%)",
			a.MeanSteps(), w.MeanSteps(), ratio)
	}
}

// Auto must preserve the delicate boundary semantics: immediate
// deadlock detection and the MaxSteps cap.
func TestAutoBoundarySemantics(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	dead, err := p.Input(map[string]int64{"i": 1})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	res, err := Run(p, dead, Options{Seed: 1, MaxSteps: 100, Scheduler: Auto{}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Deadlocked || res.Steps != 0 {
		t.Errorf("expected immediate deadlock, got %+v", res)
	}
	live, err := p.Input(map[string]int64{"i": 1 << 10})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	res, err = Run(p, live, Options{Seed: 2, MaxSteps: 100, Scheduler: Auto{}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Steps > 100 {
		t.Errorf("auto run took %d steps, cap 100", res.Steps)
	}
}

func TestAutoAttachValidation(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	for _, a := range []Auto{{Epsilon: -0.1}, {Epsilon: 1}, {MinBatch: -1}} {
		if _, err := a.Attach(NewState(p)); err == nil {
			t.Errorf("Auto%+v accepted", a)
		}
	}
	if _, err := (Auto{Epsilon: 0.2, MinBatch: 128, Workers: 4}).Attach(NewState(p)); err != nil {
		t.Errorf("valid Auto rejected: %v", err)
	}
}
