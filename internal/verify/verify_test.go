package verify

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/petri"
)

var budget = petri.Budget{MaxConfigs: 1 << 18}

// verifyOne verifies the one input of x agents of a protocol with a
// single initial state, alone: a one-worker Range over [x, x].
func verifyOne(t *testing.T, p *core.Protocol, x int64, pred Predicate, budget petri.Budget) (*Report, error) {
	t.Helper()
	res, err := Range(context.Background(), p, pred, x, x, budget, 1)
	if err != nil {
		return nil, err
	}
	if len(res.Reports) != 1 {
		t.Fatalf("Range over [%d, %d]: %d reports, want 1", x, x, len(res.Reports))
	}
	return &res.Reports[0], nil
}

func TestCountingPredicate(t *testing.T) {
	space := conf.MustSpace("i", "p")
	pred := CountingPredicate("i", 3)
	if pred(conf.MustFromMap(space, map[string]int64{"i": 2})) {
		t.Error("pred(2) = true")
	}
	if !pred(conf.MustFromMap(space, map[string]int64{"i": 3})) {
		t.Error("pred(3) = false")
	}
}

func TestInputExample42(t *testing.T) {
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	for x := int64(0); x <= 4; x++ {
		report, err := verifyOne(t, p, x, CountingPredicate("i", 2), budget)
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if !report.OK {
			t.Errorf("x=%d: stable computation fails; counterexample %v", x, report.Counterexample)
		}
		if report.Expected != (x >= 2) {
			t.Errorf("x=%d: Expected = %v", x, report.Expected)
		}
		if report.StableConfigs == 0 {
			t.Errorf("x=%d: no stable configurations", x)
		}
	}
}

// A deliberately broken protocol: output 1 for i, 0 for p, and a
// transition i -> p, so from 2·i the output flaps and... actually that
// one stably computes "false" for nothing. Build a protocol that is NOT
// well-specified: i <-> p with γ(i)=1, γ(p)=0 flips forever and neither
// stable set is reachable.
func TestInputDetectsIllSpecified(t *testing.T) {
	space := conf.MustSpace("i", "p")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	t1, err := petri.NewTransition("ip", u("i"), u("p"))
	if err != nil {
		t.Fatalf("transition: %v", err)
	}
	t2, err := petri.NewTransition("pi", u("p"), u("i"))
	if err != nil {
		t.Fatalf("transition: %v", err)
	}
	net, err := petri.New(space, []petri.Transition{t1, t2})
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	p, err := core.NewProtocol("flipflop", net, conf.New(space), []string{"i"},
		map[string]core.Output{"i": core.Out1, "p": core.Out0})
	if err != nil {
		t.Fatalf("NewProtocol: %v", err)
	}
	// Whatever the predicate claims, the flip-flop never stabilizes.
	for _, expected := range []bool{true, false} {
		pred := func(conf.Config) bool { return expected }
		report, err := verifyOne(t, p, 1, pred, budget)
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		if report.OK {
			t.Errorf("expected=%v: flip-flop accepted as stably computing", expected)
		}
		if report.Counterexample == nil {
			t.Errorf("expected=%v: no counterexample reported", expected)
		}
	}
}

func TestInputBudgetError(t *testing.T) {
	space := conf.MustSpace("i", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	pump, err := petri.NewTransition("pump", u("i"), u("i").Add(u("b")))
	if err != nil {
		t.Fatalf("transition: %v", err)
	}
	net, err := petri.New(space, []petri.Transition{pump})
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	p, err := core.NewProtocol("pumper", net, conf.New(space), []string{"i"},
		map[string]core.Output{"i": core.Out0, "b": core.Out0})
	if err != nil {
		t.Fatalf("NewProtocol: %v", err)
	}
	_, err = verifyOne(t, p, 1, func(conf.Config) bool { return false }, petri.Budget{MaxConfigs: 4})
	if !errors.Is(err, petri.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestRangeExample41(t *testing.T) {
	p, err := counting.Example41(3)
	if err != nil {
		t.Fatalf("Example41: %v", err)
	}
	res, err := Counting(p, "i", 3, 5, budget)
	if err != nil {
		t.Fatalf("Counting: %v", err)
	}
	if !res.OK() {
		f := res.FirstFailure()
		t.Fatalf("Example 4.1 fails at %v (expected %v)", f.Input, f.Expected)
	}
	// Inputs 0..5 = 6 reports.
	if len(res.Reports) != 6 {
		t.Errorf("reports = %d, want 6", len(res.Reports))
	}
	if res.MaxConfigs == 0 {
		t.Error("MaxConfigs = 0")
	}
}

func TestRangeValidation(t *testing.T) {
	p, err := counting.Example41(2)
	if err != nil {
		t.Fatalf("Example41: %v", err)
	}
	if _, err := Range(context.Background(), p, CountingPredicate("i", 2), 3, 1, budget, 0); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := Counting(p, "p", 2, 3, budget); err == nil {
		t.Error("wrong counting state accepted")
	}
}

// Range fans inputs out to a worker pool; reports must come back in
// enumeration order with identical content regardless of parallelism.
func TestRangeParallelDeterminism(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	prev := runtime.GOMAXPROCS(1)
	seq, seqErr := Counting(p, "i", 4, 7, budget)
	runtime.GOMAXPROCS(4)
	par, parErr := Counting(p, "i", 4, 7, budget)
	runtime.GOMAXPROCS(prev)
	if seqErr != nil || parErr != nil {
		t.Fatalf("errs: sequential %v, parallel %v", seqErr, parErr)
	}
	if len(seq.Reports) != len(par.Reports) || seq.MaxConfigs != par.MaxConfigs {
		t.Fatalf("shape: sequential (%d, %d), parallel (%d, %d)",
			len(seq.Reports), seq.MaxConfigs, len(par.Reports), par.MaxConfigs)
	}
	for i := range seq.Reports {
		s, q := seq.Reports[i], par.Reports[i]
		if !s.Input.Equal(q.Input) || s.Expected != q.Expected || s.OK != q.OK ||
			s.Configs != q.Configs || s.StableConfigs != q.StableConfigs {
			t.Fatalf("report %d differs: sequential %+v, parallel %+v", i, s, q)
		}
	}
	if len(seq.Failures) != len(par.Failures) {
		t.Fatalf("failures differ: %v vs %v", seq.Failures, par.Failures)
	}
}

// Budget errors must surface deterministically from the pool: the
// first failing input in enumeration order wins.
func TestRangeParallelBudgetError(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	_, err = Counting(p, "i", 4, 7, petri.Budget{MaxConfigs: 3})
	if !errors.Is(err, petri.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// sameReport reports whether two reports agree in every field,
// counterexample counts included.
func sameReport(a, b Report) bool {
	if !a.Input.Equal(b.Input) || a.Expected != b.Expected || a.OK != b.OK ||
		a.Configs != b.Configs || a.StableConfigs != b.StableConfigs ||
		(a.Counterexample == nil) != (b.Counterexample == nil) {
		return false
	}
	return a.Counterexample == nil || a.Counterexample.Equal(*b.Counterexample)
}

// Range reports must be byte-identical for every worker count: the
// input pool collects in enumeration order and each closure is
// explored sequentially, so only the wall clock may differ.
func TestRangeDeterministicAcrossWorkers(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	var ref *RangeResult
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Range(context.Background(), p, CountingPredicate("i", 4), 0, 7, budget, workers)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.MaxConfigs != ref.MaxConfigs || len(res.Reports) != len(ref.Reports) || len(res.Failures) != len(ref.Failures) {
			t.Fatalf("w=%d: (max %d, %d reports, %d failures) vs w=1 (max %d, %d, %d)",
				workers, res.MaxConfigs, len(res.Reports), len(res.Failures),
				ref.MaxConfigs, len(ref.Reports), len(ref.Failures))
		}
		for i := range res.Reports {
			if got, want := res.Reports[i], ref.Reports[i]; !sameReport(got, want) {
				t.Errorf("w=%d report %d: %+v vs w=1 %+v", workers, i, got, want)
			}
		}
	}
}

// pairOrTrap is ill-specified on most inputs: pairs of i settle as d
// (output 1), a lone agent flips i ↔ p (outputs 1 and 0), and p + d
// falls into the trap z + z (output 0). Against φ_{i≥2} its Range
// mixes verified inputs (x = 0, 2) with failing ones of both kinds:
// no stable configuration at all (odd x), and stable all-d
// configurations that the trap keeps out of reach (even x ≥ 4), whose
// counterexample lies deep in the closure. Closures grow with x, so
// each worker's reused closure storage meets every verdict.
func pairOrTrap(t *testing.T) *core.Protocol {
	t.Helper()
	space := conf.MustSpace("i", "p", "d", "z")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	var ts []petri.Transition
	for _, tr := range []struct {
		name      string
		pre, post conf.Config
	}{
		{"ii", u("i").Scale(2), u("d").Scale(2)},
		{"ip", u("i"), u("p")},
		{"pi", u("p"), u("i")},
		{"pd", u("p").Add(u("d")), u("z").Scale(2)},
	} {
		tt, err := petri.NewTransition(tr.name, tr.pre, tr.post)
		if err != nil {
			t.Fatalf("transition: %v", err)
		}
		ts = append(ts, tt)
	}
	net, err := petri.New(space, ts)
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	p, err := core.NewProtocol("pairortrap", net, conf.New(space), []string{"i"},
		map[string]core.Output{"i": core.Out1, "p": core.Out0, "d": core.Out1, "z": core.Out0})
	if err != nil {
		t.Fatalf("NewProtocol: %v", err)
	}
	return p
}

// Every report of a Range over failing and verified inputs must equal
// the report of that input verified alone, at every worker count:
// a closure built in a worker's reused storage never leaks into a
// verdict, a size or a counterexample.
func TestRangeMatchesInputOnIllSpecified(t *testing.T) {
	p := pairOrTrap(t)
	pred := CountingPredicate("i", 2)
	const maxX = 9
	var want []Report
	var wantFailures []int
	deep := 0 // counterexamples other than the initial configuration
	for x := int64(0); x <= maxX; x++ {
		r, err := verifyOne(t, p, x, pred, budget)
		if err != nil {
			t.Fatalf("verify x=%d: %v", x, err)
		}
		if !r.OK {
			wantFailures = append(wantFailures, int(x))
			if !r.Counterexample.Equal(p.InitialConfig(r.Input)) {
				deep++
			}
		}
		want = append(want, *r)
	}
	if fmt.Sprint(wantFailures) != "[1 3 4 5 6 7 8 9]" || deep != 3 {
		t.Fatalf("failing inputs %v with %d deep counterexamples, want [1 3 4 5 6 7 8 9] with 3 (x = 4, 6, 8)",
			wantFailures, deep)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Range(context.Background(), p, pred, 0, maxX, budget, workers)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if len(res.Reports) != len(want) || fmt.Sprint(res.Failures) != fmt.Sprint(wantFailures) {
			t.Fatalf("w=%d: %d reports, failures %v; want %d, %v",
				workers, len(res.Reports), res.Failures, len(want), wantFailures)
		}
		for i, got := range res.Reports {
			if !sameReport(got, want[i]) {
				t.Errorf("w=%d report %d: %+v (counterexample %v), alone %+v (counterexample %v)",
					workers, i, got, got.Counterexample, want[i], want[i].Counterexample)
			}
		}
	}
}

// Range on a small counting instance (seven inputs), one worker. The
// ceiling is the measured count plus about 10%: 402 allocations per
// call when every closure was built fresh; 201 once each was built in
// the storage of the one before, with the reverse CSR, id lists and
// BFS arrays still fresh per input; 69 with those kept in a pooled
// workspace but each closure's expander fresh; 48 with the expander
// and its scratch buffer reused as well and each input cloned once;
// 41 with each input embedded straight from the enumeration, no
// clone. Those counts went through Counting; Range alone, its
// predicate built once outside the loop, makes 38 of them.
func TestRangeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	b := petri.Budget{MaxConfigs: 1 << 20}
	pred := CountingPredicate("i", 2)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Range(context.Background(), p, pred, 0, 6, b, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 42 {
		t.Errorf("Range allocates %.0f times per call, ceiling 42", allocs)
	}
}

// A cancelled context ends a Range at every worker count: up front,
// and mid-walk on closures that only cancellation can end (each input
// pumps p forever). The error wraps petri.ErrCancelled, and Range
// returns only after its helpers have.
func TestRangeCancel(t *testing.T) {
	space := conf.MustSpace("i", "p")
	pump, err := petri.NewTransition("pump", conf.MustUnit(space, "i"), conf.MustFromMap(space, map[string]int64{"i": 1, "p": 1}))
	if err != nil {
		t.Fatal(err)
	}
	net, err := petri.New(space, []petri.Transition{pump})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProtocol("pump", net, conf.New(space), []string{"i"},
		map[string]core.Output{"i": core.Out1, "p": core.Out0})
	if err != nil {
		t.Fatal(err)
	}
	// A walk that outlived its cancellation would end on this budget
	// with ErrBudget instead.
	b := petri.Budget{MaxConfigs: 1 << 22}
	pred := CountingPredicate("i", 1)
	for _, workers := range []int{1, 2, 4} {
		for _, when := range []string{"before", "mid-walk"} {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			if when == "before" {
				cancel()
			} else {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			_, err := Range(ctx, p, pred, 1, 4, b, workers)
			cancel()
			if !errors.Is(err, petri.ErrCancelled) {
				t.Fatalf("w=%d cancelled %s: err = %v, want petri.ErrCancelled", workers, when, err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
				if time.Now().After(deadline) {
					t.Fatalf("w=%d cancelled %s: %d goroutines after Range, %d before", workers, when, runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
