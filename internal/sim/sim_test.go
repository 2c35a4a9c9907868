package sim

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
)

func input(t *testing.T, p *core.Protocol, x int64) conf.Config {
	t.Helper()
	in, err := p.Input(map[string]int64{"i": x})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	return in
}

// flipFlop builds the deadlock-free net 2a ⇄ 2b: both transitions stay
// recurrently enabled from any even population, so a run executes
// exactly MaxSteps interactions.
func flipFlop(t *testing.T, agents int64) (*core.Protocol, conf.Config) {
	t.Helper()
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	p := leaderless(t, "flipflop", space, []string{"a"},
		map[string]core.Output{"a": core.Out0, "b": core.Out0},
		rule{"ab", u("a").Scale(2), u("b").Scale(2)},
		rule{"ba", u("b").Scale(2), u("a").Scale(2)},
	)
	in, err := p.Input(map[string]int64{"a": agents})
	if err != nil {
		t.Fatal(err)
	}
	return p, in
}

func TestRunDeterministic(t *testing.T) {
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	in := input(t, p, 3)
	r1, err := Run(p, in, Options{Seed: 42, MaxSteps: 2000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := Run(p, in, Options{Seed: 42, MaxSteps: 2000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Steps != r2.Steps || !r1.Final.Equal(r2.Final) || r1.LastChange != r2.LastChange {
		t.Error("same seed produced different runs")
	}
}

func TestRunConvergesCorrectly(t *testing.T) {
	tests := []struct {
		name string
		n    int64
		x    int64
		want bool
	}{
		{"above", 2, 4, true},
		{"at", 2, 2, true},
		{"below", 2, 1, false},
		{"zero", 2, 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := counting.Example42(tc.n)
			if err != nil {
				t.Fatalf("Example42: %v", err)
			}
			res, err := Run(p, input(t, p, tc.x), Options{Seed: 7, MaxSteps: 20_000})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Converged {
				t.Fatalf("did not converge: %+v", res)
			}
			got, ok := res.ConsensusBool()
			if !ok {
				t.Fatalf("no consensus: output %v", res.Output)
			}
			if got != tc.want {
				t.Errorf("consensus = %v, want %v (final %v)", got, tc.want, res.Final)
			}
		})
	}
}

func TestRunFlockDeadlocksBelowThreshold(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	// x=1: single agent, no pair: immediate deadlock at output {0}.
	res, err := Run(p, input(t, p, 1), Options{Seed: 1, MaxSteps: 100})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Deadlocked || !res.Converged {
		t.Errorf("expected deadlock convergence, got %+v", res)
	}
	if v, ok := res.ConsensusBool(); !ok || v {
		t.Errorf("consensus = %v,%v; want false,true", v, ok)
	}
}

func TestRunPatience(t *testing.T) {
	p, err := counting.FlockOfBirds(3)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	res, err := Run(p, input(t, p, 5), Options{Seed: 3, MaxSteps: 100_000, StablePatience: 200})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("patience did not trigger: %+v", res)
	}
	if v, _ := res.ConsensusBool(); !v {
		t.Errorf("flock(3) with x=5 should accept; final %v", res.Final)
	}
}

func TestRunWrongSpace(t *testing.T) {
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	if _, err := Run(p, conf.New(conf.MustSpace("zz")), Options{}); err == nil {
		t.Error("wrong-space input accepted")
	}
}

func TestRunMany(t *testing.T) {
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	stats, err := RunMany(context.Background(), p, input(t, p, 3), true, 20, Options{Seed: 11, MaxSteps: 20_000})
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if stats.Converged != 20 {
		t.Errorf("converged = %d/20", stats.Converged)
	}
	if stats.Correct != 20 {
		t.Errorf("correct = %d/20", stats.Correct)
	}
	if stats.MeanSteps() <= 0 || stats.MaxSteps <= 0 || stats.MinSteps <= 0 {
		t.Errorf("step stats empty: %+v", stats)
	}
	if stats.MinSteps > stats.MaxSteps {
		t.Errorf("MinSteps %d > MaxSteps %d", stats.MinSteps, stats.MaxSteps)
	}
	if _, err := RunMany(context.Background(), p, input(t, p, 3), true, 0, Options{}); err == nil {
		t.Error("zero trials accepted")
	}
}

// Trial ranges of one input must reproduce, trial for trial, the
// corresponding slice of a full run: merging the partials of any
// partition is bit-identical to the whole.
func TestRunRangeMergesToRunMany(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	in := input(t, p, 9)
	opts := Options{Seed: 77, MaxSteps: 200_000, StablePatience: 1_000}
	const trials = 12
	whole, err := RunMany(context.Background(), p, in, true, trials, opts)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	for _, cuts := range [][]int{
		{0, trials},
		{0, 5, trials},
		{0, 3, 6, 9, trials},
		{0, 1, trials - 1, trials},
	} {
		var merged Stats
		for i := 0; i+1 < len(cuts); i++ {
			part, err := runRange(context.Background(), p, in, true, cuts[i], cuts[i+1], opts)
			if err != nil {
				t.Fatalf("runRange[%d,%d): %v", cuts[i], cuts[i+1], err)
			}
			merged.Merge(*part)
		}
		if merged != *whole {
			t.Errorf("cuts %v: merged %+v != whole %+v", cuts, merged, *whole)
		}
	}
	if _, err := runRange(context.Background(), p, in, true, 5, 5, opts); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := runRange(context.Background(), p, in, true, -1, 2, opts); err == nil {
		t.Error("negative trialLo accepted")
	}
}

func TestStatsMerge(t *testing.T) {
	obs := func(s *Stats, steps, lastChange int, converged, correct bool) {
		out := core.Set0
		if correct {
			out = core.Set1
		}
		s.Observe(&Result{Steps: steps, LastChange: lastChange, Converged: converged, Output: out}, true)
	}
	var whole, a, b Stats
	type trial struct {
		steps, last        int
		converged, correct bool
	}
	trials := []trial{
		{100, 40, true, true},
		{7, 2, true, false},
		{500, 0, false, false},
		{250, 249, true, true},
	}
	for i, tr := range trials {
		obs(&whole, tr.steps, tr.last, tr.converged, tr.correct)
		if i < 2 {
			obs(&a, tr.steps, tr.last, tr.converged, tr.correct)
		} else {
			obs(&b, tr.steps, tr.last, tr.converged, tr.correct)
		}
	}
	var m Stats
	m.Merge(a)
	m.Merge(b)
	if m != whole {
		t.Fatalf("merged %+v != whole %+v", m, whole)
	}
	if m.Trials != 4 || m.Converged != 3 || m.Correct != 2 {
		t.Errorf("counts: %+v", m)
	}
	if m.MinSteps != 7 || m.MaxSteps != 500 {
		t.Errorf("extrema: min %d max %d", m.MinSteps, m.MaxSteps)
	}
	if got := m.MeanSteps(); got != (100+7+500+250)/4.0 {
		t.Errorf("MeanSteps = %v", got)
	}
	if got := m.MeanLastChange(); got != (40+2+249)/3.0 {
		t.Errorf("MeanLastChange = %v", got)
	}
	if m.VarianceSteps() <= 0 || m.HalfCI95Steps() <= 0 {
		t.Errorf("dispersion: var %v ci %v", m.VarianceSteps(), m.HalfCI95Steps())
	}
	// Empty merge partners are identities in both directions.
	var empty Stats
	m2 := whole
	m2.Merge(empty)
	if m2 != whole {
		t.Errorf("merge with empty changed stats")
	}
	empty.Merge(whole)
	if empty != whole {
		t.Errorf("merge into empty != whole")
	}
}

// The 128-bit Σ Steps² must be exact where a float64 (or an unchecked
// int64) accumulator would not be.
func TestStatsSumSquares128(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("steps of 2^31 are not representable in a 32-bit int")
	}
	var s Stats
	shift := 31       // via a variable so the 386 compiler sees no constant overflow
	big := 1 << shift // steps² = 2⁶², three of them overflow int64
	for i := 0; i < 3; i++ {
		s.Observe(&Result{Steps: big}, true)
	}
	// 3·2⁶² < 2⁶⁴: still in the low word.
	if s.SumStepsSqHi != 0 || s.SumStepsSqLo != 3<<62 {
		t.Fatalf("sumsq = (%d,%d), want (0,%d)", s.SumStepsSqHi, s.SumStepsSqLo, uint64(3)<<62)
	}
	s.Observe(&Result{Steps: big}, true)
	if s.SumStepsSqHi != 1 || s.SumStepsSqLo != 0 {
		t.Fatalf("sumsq = (%d,%d), want (1,0)", s.SumStepsSqHi, s.SumStepsSqLo)
	}
	// Variance of a constant sample is 0 even past 2⁵³.
	if v := s.VarianceSteps(); v != 0 {
		t.Errorf("variance of constant sample = %v", v)
	}
}

func TestRunManyCancelled(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	in := input(t, p, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMany(ctx, p, in, true, 8, Options{Seed: 1, MaxSteps: 100_000}); err != context.Canceled {
		t.Errorf("pre-cancelled RunMany err = %v, want context.Canceled", err)
	}
	// Cancellation must also land mid-run, not only between trials: one
	// long trial on the deadlock-free flip-flop net 2a ⇄ 2b.
	p2, in2 := flipFlop(t, 64)
	ctx2, cancel2 := context.WithCancel(context.Background())
	donech := make(chan error, 1)
	go func() {
		_, err := RunMany(ctx2, p2, in2, true, 1, Options{Seed: 1, MaxSteps: 1 << 30, Workers: 1})
		donech <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel2()
	select {
	case err := <-donech:
		if err != context.Canceled {
			t.Errorf("mid-run cancel err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunMany did not return after cancellation")
	}
}

func TestInstanceWeight(t *testing.T) {
	space := conf.MustSpace("a", "b")
	pre := conf.MustFromMap(space, map[string]int64{"a": 2})
	cur := conf.MustFromMap(space, map[string]int64{"a": 4, "b": 1})
	// C(4,2) = 6.
	if w := instanceWeight(pre, cur); w != 6 {
		t.Errorf("weight = %v, want 6", w)
	}
	// Disabled: zero weight.
	tooMuch := conf.MustFromMap(space, map[string]int64{"a": 5})
	if w := instanceWeight(tooMuch, cur); w != 0 {
		t.Errorf("weight = %v, want 0", w)
	}
	// Empty pre (creation-only transition): weight 1.
	if w := instanceWeight(conf.New(space), cur); w != 1 {
		t.Errorf("empty pre weight = %v, want 1", w)
	}
}

func TestBinom(t *testing.T) {
	tests := []struct {
		n, k int64
		want float64
	}{
		{5, 2, 10}, {6, 3, 20}, {4, 0, 1}, {3, 3, 1},
	}
	for _, tc := range tests {
		if got := binom(tc.n, tc.k); got != tc.want {
			t.Errorf("binom(%d,%d) = %v, want %v", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	// The trial pool must not leak scheduling order into the statistics:
	// any worker count yields identical aggregates for the same seed.
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	in := input(t, p, 9)
	run := func(workers int) Stats {
		stats, err := RunMany(context.Background(), p, in, true, 12, Options{
			Seed: 77, MaxSteps: 200_000, StablePatience: 1_000, Workers: workers,
		})
		if err != nil {
			t.Fatalf("RunMany(workers=%d): %v", workers, err)
		}
		return *stats
	}
	base := run(1)
	for _, w := range []int{2, 4, 0} {
		if got := run(w); got != base {
			t.Errorf("workers=%d: stats %+v differ from serial %+v", w, got, base)
		}
	}
}
