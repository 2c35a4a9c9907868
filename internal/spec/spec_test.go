package spec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/verify"
)

var budget = petri.Budget{MaxConfigs: 1 << 18}

func TestPredicateEval(t *testing.T) {
	th := Threshold{Weights: map[string]int64{"x": 2, "y": 1}, C: 4}
	if !th.Eval(map[string]int64{"x": 2}) {
		t.Error("2·2 ≥ 4 false")
	}
	if th.Eval(map[string]int64{"x": 1, "y": 1}) {
		t.Error("3 ≥ 4 true")
	}
	rm := Remainder{Weights: map[string]int64{"x": 1}, M: 3, R: 1}
	if !rm.Eval(map[string]int64{"x": 4}) {
		t.Error("4 ≡ 1 mod 3 false")
	}
	and := And{L: th, R: rm}
	// x=4: 2·4 = 8 ≥ 4 and 4 ≡ 1 (mod 3).
	if !and.Eval(map[string]int64{"x": 4}) {
		t.Error("And false")
	}
	or := Or{L: th, R: rm}
	if !or.Eval(map[string]int64{"x": 1}) {
		t.Error("Or false (1 ≡ 1 mod 3)")
	}
	not := Not{P: th}
	if not.Eval(map[string]int64{"x": 5}) {
		t.Error("Not true")
	}
	if got := and.Vars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("Vars = %v", got)
	}
	for _, s := range []string{th.String(), rm.String(), and.String(), or.String(), not.String()} {
		if s == "" {
			t.Error("empty String()")
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Pred{
		Threshold{Weights: map[string]int64{"x": 1}, C: 0},
		Threshold{Weights: map[string]int64{}, C: 1},
		Threshold{Weights: map[string]int64{"x": -1}, C: 1},
		Remainder{Weights: map[string]int64{"x": 1}, M: 0, R: 0},
		Remainder{Weights: map[string]int64{"x": 1}, M: 3, R: 3},
		Remainder{Weights: map[string]int64{}, M: 2, R: 0},
	}
	for i, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("case %d: invalid predicate compiled", i)
		}
	}
}

// verifyPred exhaustively checks the compiled protocol against the
// predicate's own evaluator for all inputs up to maxTotal agents.
func verifyPred(t *testing.T, p Pred, minTotal, maxTotal int64) {
	t.Helper()
	proto, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile(%v): %v", p, err)
	}
	pred := func(input conf.Config) bool {
		counts := map[string]int64{}
		// Input states are the variables (or var|var pairs for
		// products); translate back to variable counts.
		for _, v := range p.Vars() {
			for _, is := range proto.InitialStates() {
				if is == v || strings.HasPrefix(is, v+"|") {
					counts[v] = input.GetName(is)
				}
			}
		}
		return p.Eval(counts)
	}
	res, err := verify.Range(context.Background(), proto, pred, minTotal, maxTotal, budget, 0)
	if err != nil {
		t.Fatalf("verify %v: %v", p, err)
	}
	if !res.OK() {
		f := res.FirstFailure()
		t.Errorf("%v fails at input %v (expected %v), counterexample %v",
			p, f.Input, f.Expected, f.Counterexample)
	}
}

func TestThresholdStablyComputes(t *testing.T) {
	verifyPred(t, Threshold{Weights: map[string]int64{"x": 1}, C: 3}, 0, 5)
	verifyPred(t, Threshold{Weights: map[string]int64{"x": 2, "y": 1}, C: 4}, 0, 4)
	verifyPred(t, Threshold{Weights: map[string]int64{"x": 5, "y": 1}, C: 3}, 0, 4)
	verifyPred(t, Threshold{Weights: map[string]int64{"x": 0, "y": 1}, C: 2}, 0, 4)
}

func TestRemainderStablyComputes(t *testing.T) {
	// r = 0 disagrees with the model at the empty input (the zero
	// configuration outputs 0 by definition), so start at 1 agent.
	verifyPred(t, Remainder{Weights: map[string]int64{"x": 1}, M: 2, R: 0}, 1, 5)
	verifyPred(t, Remainder{Weights: map[string]int64{"x": 1}, M: 3, R: 1}, 0, 5)
	verifyPred(t, Remainder{Weights: map[string]int64{"x": 2, "y": 1}, M: 3, R: 2}, 0, 4)
}

func TestAndOrNotStablyCompute(t *testing.T) {
	th := Threshold{Weights: map[string]int64{"x": 1}, C: 2}
	rm := Remainder{Weights: map[string]int64{"x": 1}, M: 2, R: 1}
	verifyPred(t, And{L: th, R: rm}, 0, 4)
	verifyPred(t, Or{L: th, R: rm}, 1, 4)
	verifyPred(t, Not{P: th}, 1, 4)
}

func TestCompileThresholdShape(t *testing.T) {
	p, err := Compile(Threshold{Weights: map[string]int64{"x": 1}, C: 4})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// states: x, v1..v3, z, T = 6.
	if p.States() != 6 {
		t.Errorf("states = %d, want 6", p.States())
	}
	if p.Width() != 2 || !p.Net().Conservative() || !p.Leaderless() {
		t.Error("threshold protocol shape wrong")
	}
}

func TestMajority(t *testing.T) {
	p, err := Majority("A", "B")
	if err != nil {
		t.Fatalf("Majority: %v", err)
	}
	if p.States() != 4 {
		t.Errorf("states = %d, want 4", p.States())
	}
	pred := func(input conf.Config) bool {
		return input.GetName("A") > input.GetName("B")
	}
	res, err := verify.Range(context.Background(), p, pred, 0, 6, budget, 0)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !res.OK() {
		f := res.FirstFailure()
		t.Errorf("majority fails at %v (expected %v), counterexample %v",
			f.Input, f.Expected, f.Counterexample)
	}

	if _, err := Majority("A", "A"); err == nil {
		t.Error("same-variable majority accepted")
	}
	mp := MajorityPred("A", "B")
	if !mp.Eval(map[string]int64{"A": 2, "B": 1}) || mp.Eval(map[string]int64{"A": 1, "B": 1}) {
		t.Error("MajorityPred wrong")
	}
	if len(mp.Vars()) != 2 || mp.String() == "" {
		t.Error("MajorityPred metadata wrong")
	}
}

func TestNegateOutputs(t *testing.T) {
	th := Threshold{Weights: map[string]int64{"x": 1}, C: 2}
	p, err := Compile(Not{P: th})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// T must now output 0 and everything else 1.
	gamma := func(name string) core.Output {
		i, ok := p.Space().Index(name)
		if !ok {
			t.Fatalf("no state %q", name)
		}
		return p.Gamma(i)
	}
	if o := gamma("T"); o != core.Out0 {
		t.Errorf("γ(T) = %v; want 0", o)
	}
	if o := gamma("z"); o != core.Out1 {
		t.Errorf("γ(z) = %v; want 1", o)
	}
}
