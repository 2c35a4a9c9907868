package sim

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/counting"
	"repro/internal/spec"
)

func schedulers() []Scheduler {
	return []Scheduler{Weighted{}, UniformPairs{}, CountBatched{}, Auto{}}
}

// All three schedulers must agree on what the protocols compute: this
// is the cross-scheduler consistency check of the acceptance criteria,
// on the flock counting protocol and the majority example.
func TestSchedulersConsistentFlock(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	for _, tc := range []struct {
		x    int64
		want bool
	}{
		{8, true},
		{2, false},
	} {
		input, err := p.Input(map[string]int64{"i": tc.x})
		if err != nil {
			t.Fatalf("input: %v", err)
		}
		for _, sched := range schedulers() {
			stats, err := RunMany(context.Background(), p, input, tc.want, 20, Options{
				Seed: 7, MaxSteps: 500_000, StablePatience: 2_000, Scheduler: sched,
			})
			if err != nil {
				t.Fatalf("%s x=%d: %v", sched.Name(), tc.x, err)
			}
			if stats.Converged != 20 || stats.Correct != 20 {
				t.Errorf("%s x=%d: correct %d/20, converged %d/20",
					sched.Name(), tc.x, stats.Correct, stats.Converged)
			}
		}
	}
}

func TestSchedulersConsistentMajority(t *testing.T) {
	p, err := spec.Majority("A", "B")
	if err != nil {
		t.Fatalf("Majority: %v", err)
	}
	for _, tc := range []struct {
		a, b int64
		want bool
	}{
		{14, 6, true},
		{5, 13, false},
	} {
		input, err := p.Input(map[string]int64{"A": tc.a, "B": tc.b})
		if err != nil {
			t.Fatalf("input: %v", err)
		}
		for _, sched := range schedulers() {
			stats, err := RunMany(context.Background(), p, input, tc.want, 20, Options{
				Seed: 31, MaxSteps: 500_000, StablePatience: 3_000, Scheduler: sched,
			})
			if err != nil {
				t.Fatalf("%s A=%d B=%d: %v", sched.Name(), tc.a, tc.b, err)
			}
			if stats.Converged != 20 || stats.Correct != 20 {
				t.Errorf("%s A=%d B=%d: correct %d/20, converged %d/20",
					sched.Name(), tc.a, tc.b, stats.Correct, stats.Converged)
			}
		}
	}
}

// The uniform scheduler is only defined for conservative 2→2 protocols;
// Example 4.1 at n = 3 has width-3 transitions and must be rejected at
// Attach time with a useful error.
func TestUniformRejectsWideProtocol(t *testing.T) {
	p, err := counting.Example41(3)
	if err != nil {
		t.Fatalf("Example41: %v", err)
	}
	if _, err := (UniformPairs{}).Attach(NewState(p)); err == nil {
		t.Fatal("uniform scheduler accepted a width-3 protocol")
	}
	input, err := p.Input(map[string]int64{"i": 5})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	if _, err := Run(p, input, Options{Scheduler: UniformPairs{}}); err == nil {
		t.Error("Run accepted uniform scheduler on a width-3 protocol")
	}
	if _, err := RunMany(context.Background(), p, input, true, 2, Options{Scheduler: UniformPairs{}}); err == nil {
		t.Error("RunMany accepted uniform scheduler on a width-3 protocol")
	}
}

func TestUniformDeadlocksWithoutPairs(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 1})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	res, err := Run(p, input, Options{Seed: 1, MaxSteps: 100, Scheduler: UniformPairs{}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Deadlocked || !res.Converged {
		t.Errorf("expected deadlock convergence, got %+v", res)
	}
}

// Scheduler names resolve through RunParams.Options, the one place a
// name becomes a Scheduler.
func TestSchedulerByName(t *testing.T) {
	for name, want := range map[string]string{
		"":           "weighted",
		"weighted":   "weighted",
		"uniform":    "uniform",
		"countbatch": "countbatch",
		"auto":       "auto",
	} {
		opts, err := RunParams{Scheduler: name}.Options(0)
		if err != nil {
			t.Fatalf("scheduler %q: %v", name, err)
		}
		if opts.Scheduler.Name() != want {
			t.Errorf("scheduler %q resolves to %q, want %q", name, opts.Scheduler.Name(), want)
		}
	}
	if _, err := (RunParams{Scheduler: "nope"}).Options(0); err == nil {
		t.Error("unknown scheduler name accepted")
	}
}

// SchedulerParams is the one batch/eps rule: defaults filled in for
// countbatch and auto, everything inapplicable or out of range
// rejected, and the removed batched scheduler pointed at auto.
func TestSchedulerParams(t *testing.T) {
	for _, tc := range []struct {
		name      string
		batch     int
		eps       float64
		wantBatch int
		wantEps   float64
	}{
		{"", 0, 0, 0, 0},
		{"uniform", 0, 0, 0, 0},
		{"countbatch", 0, 0, DefaultMinBatch, DefaultEpsilon},
		{"auto", 0, 0.2, DefaultMinBatch, 0.2},
		{"auto", 9, 0, 9, DefaultEpsilon},
	} {
		batch, eps, err := SchedulerParams(tc.name, tc.batch, tc.eps)
		if err != nil || batch != tc.wantBatch || eps != tc.wantEps {
			t.Errorf("SchedulerParams(%q, %d, %g) = %d, %g, %v; want %d, %g",
				tc.name, tc.batch, tc.eps, batch, eps, err, tc.wantBatch, tc.wantEps)
		}
	}
	for _, tc := range []struct {
		name  string
		batch int
		eps   float64
	}{
		{"weighted", 9, 0},
		{"", 0, 0.3},
		{"uniform", 1, 0},
		{"countbatch", -1, 0},
		{"auto", 0, -0.1},
		{"countbatch", 0, 1},
		{"auto", 0, 1.5},
		{"countbatch", 0, math.NaN()},
		{"nope", 0, 0},
	} {
		if _, _, err := SchedulerParams(tc.name, tc.batch, tc.eps); err == nil {
			t.Errorf("SchedulerParams(%q, %d, %g) accepted", tc.name, tc.batch, tc.eps)
		}
		if _, err := (RunParams{Scheduler: tc.name, Batch: tc.batch, Eps: tc.eps}).Options(0); err == nil {
			t.Errorf("scheduler %q batch %d eps %g accepted", tc.name, tc.batch, tc.eps)
		}
	}
	if _, err := (RunParams{Scheduler: "batched"}).Options(0); err == nil || !strings.Contains(err.Error(), "auto") {
		t.Errorf("removed batched scheduler: error %v does not point at auto", err)
	}
}

// Seeded runs under the exact weighted scheduler stay reproducible —
// the determinism clause of the acceptance criteria, for every
// scheduler.
func TestSchedulersDeterministic(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 10})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	for _, sched := range schedulers() {
		run := func() *Result {
			res, err := Run(p, input, Options{Seed: 1234, MaxSteps: 50_000, StablePatience: 500, Scheduler: sched})
			if err != nil {
				t.Fatalf("%s: %v", sched.Name(), err)
			}
			return res
		}
		a, b := run(), run()
		if a.Steps != b.Steps || !a.Final.Equal(b.Final) || a.LastChange != b.LastChange {
			t.Errorf("%s: same seed produced different runs", sched.Name())
		}
	}
}

func TestUniformMatchesWeightedDistribution(t *testing.T) {
	// On a conservative 2→2 protocol the uniform scheduler, conditioned
	// on non-null steps, induces the same interaction distribution as
	// the weighted scheduler. Spot-check by comparing acceptance rates
	// over many short runs.
	p, err := counting.FlockOfBirds(3)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 4})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	accept := func(sched Scheduler) int {
		n := 0
		for seed := int64(0); seed < 60; seed++ {
			res, err := Run(p, input, Options{Seed: seed, MaxSteps: 50_000, StablePatience: 500, Scheduler: sched})
			if err != nil {
				t.Fatalf("%s: %v", sched.Name(), err)
			}
			if v, ok := res.ConsensusBool(); ok && v {
				n++
			}
		}
		return n
	}
	w, u := accept(Weighted{}), accept(UniformPairs{})
	// x=4 ≥ n=3: every run should accept under both schedulers.
	if w != 60 || u != 60 {
		t.Errorf("acceptance weighted=%d/60 uniform=%d/60", w, u)
	}
}
