package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/registry"
)

func TestStopRuleValidate(t *testing.T) {
	good := []StopRule{{}, {TargetRelCI: 0.1}, {TargetRelCI: 0.5, MinTrials: 4}}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", r, err)
		}
	}
	bad := []StopRule{
		{TargetRelCI: -0.1},
		{TargetRelCI: 1},
		{TargetRelCI: 1.5},
		{TargetRelCI: 0.1, MinTrials: -1},
		{MinTrials: 4}, // floor without a target could never fire
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", r)
		}
	}
}

func TestStopRuleSatisfied(t *testing.T) {
	// A disabled rule never fires, whatever the stats.
	tight := Stats{}
	for i := 0; i < 100; i++ {
		tight.Observe(&Result{Steps: 500, Converged: true, Deadlocked: true}, false)
	}
	if (StopRule{}).Satisfied(&tight) {
		t.Error("disabled rule fired")
	}
	// Identical samples: zero variance, so any positive target fires
	// once the floor is met.
	r := StopRule{TargetRelCI: 0.05, MinTrials: 4}
	if r.Satisfied(&Stats{Trials: 3}) {
		t.Error("rule fired below its trial floor")
	}
	if !r.Satisfied(&tight) {
		t.Error("rule did not fire on a zero-variance sample")
	}
	// High-variance sample: half-CI is far above 5% of the mean.
	var wild Stats
	for i := 0; i < 8; i++ {
		steps := 10
		if i%2 == 0 {
			steps = 10_000
		}
		wild.Observe(&Result{Steps: steps}, false)
	}
	if r.Satisfied(&wild) {
		t.Errorf("rule fired on a wild sample (mean %.0f, half-CI %.0f)",
			wild.MeanSteps(), wild.HalfCI95Steps())
	}
	// The defaulted floor is DefaultMinTrials.
	def := StopRule{TargetRelCI: 0.05}.WithDefaults()
	if def.MinTrials != DefaultMinTrials {
		t.Errorf("defaulted floor = %d, want %d", def.MinTrials, DefaultMinTrials)
	}
	if (StopRule{}).WithDefaults() != (StopRule{}) {
		t.Error("WithDefaults invented a floor for a disabled rule")
	}
}

// The stopping decision must be a pure function of the prefix Stats:
// folding the same cells in trial order on two hosts gives the same
// Satisfied answer because the accumulators are bit-identical. This
// pins the claim with a real sweep prefix rather than synthetic stats.
func TestStopRuleDeterministicOnPrefixes(t *testing.T) {
	p, n, err := registry.Make("flock", 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 11, MaxSteps: 200_000, StablePatience: 1_000}
	input, err := p.Input(map[string]int64{"i": 9})
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Seed = DeriveSeedK(opts.Seed, 9)
	rule := StopRule{TargetRelCI: 0.3, MinTrials: 4}
	// Fold block-by-block twice with different worker counts; the
	// per-boundary decisions must agree exactly.
	decide := func(workers int) []bool {
		var prefix Stats
		var out []bool
		oo := o
		oo.Workers = workers
		for lo := 0; lo < 16; lo += 4 {
			st, err := runRange(context.Background(), p, input, 9 >= n, lo, lo+4, oo)
			if err != nil {
				t.Fatal(err)
			}
			prefix.Merge(*st)
			out = append(out, rule.Satisfied(&prefix))
		}
		return out
	}
	if a, b := decide(1), decide(4); !reflect.DeepEqual(a, b) {
		t.Errorf("stopping decisions depend on worker count: %v vs %v", a, b)
	}
}
