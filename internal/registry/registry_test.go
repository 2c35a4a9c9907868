package registry

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/verify"
)

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("registry has %d entries, want 7: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestMakeAll(t *testing.T) {
	params := map[string]int64{
		"example41":      3,
		"example42":      3,
		"flock":          3,
		"power2":         2,
		"leaderdoubling": 2,
		"tower":          1,
		"majority":       0,
	}
	thresholds := map[string]int64{
		"example41":      3,
		"example42":      3,
		"flock":          3,
		"power2":         4,
		"leaderdoubling": 4,
		"tower":          4,
		"majority":       0,
	}
	for _, name := range Names() {
		p, n, err := Make(name, params[name])
		if err != nil {
			t.Errorf("Make(%s): %v", name, err)
			continue
		}
		if p == nil || p.States() == 0 {
			t.Errorf("Make(%s): empty protocol", name)
		}
		if n != thresholds[name] {
			t.Errorf("Make(%s): threshold %d, want %d", name, n, thresholds[name])
		}
	}
}

func TestMakeUnknown(t *testing.T) {
	if _, _, err := Make("nonsense", 1); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := Lookup("nonsense"); err == nil {
		t.Error("unknown lookup accepted")
	}
}

func TestLookupMetadata(t *testing.T) {
	e, err := Lookup("tower")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if e.Name != "tower" || e.Param == "" {
		t.Errorf("entry metadata: %+v", e)
	}
}

func TestMakeInvalidParam(t *testing.T) {
	if _, _, err := Make("example41", 0); err == nil {
		t.Error("example41 with n=0 accepted")
	}
	if _, _, err := Make("tower", 99); err == nil {
		t.Error("tower with k=99 accepted")
	}
}

// Every entry's Shape is differential against its Make: over small
// parameters (and the shift edges of the 2^k families) the threshold,
// the state and transition counts, the input state and every
// validation error agree with what Make builds.
func TestShapeMatchesMake(t *testing.T) {
	params := []int64{-3, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 33}
	for _, name := range Names() {
		e, _ := Lookup(name)
		ps := params
		if name == "power2" || name == "leaderdoubling" {
			ps = append(ps, 62, 63, 64, 65, 100)
		}
		for _, param := range ps {
			sh, serr := e.Shape(param)
			p, n, merr := e.Make(param)
			if (serr == nil) != (merr == nil) || serr != nil && serr.Error() != merr.Error() {
				t.Errorf("%s(%d): Shape error %v, Make error %v", name, param, serr, merr)
				continue
			}
			if merr != nil {
				continue
			}
			got := [3]int64{sh.Threshold, sh.States, sh.Transitions}
			want := [3]int64{n, int64(p.States()), int64(len(p.Net().Transitions()))}
			if got != want {
				t.Errorf("%s(%d): Shape (n, states, transitions) = %v, Make built %v", name, param, got, want)
			}
			if in := p.InitialStates()[0]; e.Input != in {
				t.Errorf("%s(%d): entry input %q, built protocol's %q", name, param, e.Input, in)
			}
		}
	}
}

// Shape prices parameters far beyond anything buildable without
// building: sizes saturate instead of wrapping, and nothing allocates.
func TestShapeOfHugeParams(t *testing.T) {
	for _, c := range []struct {
		name  string
		param int64
	}{{"flock", 1 << 20}, {"flock", math.MaxInt64}, {"example41", math.MaxInt64}, {"power2", math.MaxInt64}, {"leaderdoubling", 1 << 40}} {
		sh, err := ShapeOf(c.name, c.param)
		if err != nil {
			t.Fatalf("%s(%d): %v", c.name, c.param, err)
		}
		if sh.States <= 0 || sh.Transitions <= 0 || sh.Cells() < 1<<30 {
			t.Errorf("%s(%d): shape %+v cells %d, want a huge positive size", c.name, c.param, sh, sh.Cells())
		}
		if a := testing.AllocsPerRun(10, func() { _, _ = ShapeOf(c.name, c.param) }); a != 0 {
			t.Errorf("%s(%d): ShapeOf allocates %.0f times", c.name, c.param, a)
		}
	}
	if sh, _ := ShapeOf("flock", 1<<20); sh.Transitions != (1<<20)*(1<<20-1)/2+1<<20 || sh.States != 1<<20+1 {
		t.Errorf("flock(2^20) shape %+v", sh)
	}
	if sh, _ := ShapeOf("flock", math.MaxInt64); sh.States != math.MaxInt64 || sh.Transitions != math.MaxInt64 || sh.Cells() != math.MaxInt64 {
		t.Errorf("flock(MaxInt64) shape %+v does not saturate", sh)
	}
}

// sharedWork runs a small sweep and an exhaustive verification on p
// and renders both results as text.
func sharedWork(p *core.Protocol, n int64) (string, error) {
	cells := []sim.Cell{{X: 3, TrialLo: 0, TrialHi: 4}, {X: 9, TrialLo: 0, TrialHi: 4}, {X: 40, TrialLo: 2, TrialHi: 6}}
	out := ""
	err := sim.SweepCells(context.Background(), p, "i", cells, func(x int64) bool { return x >= n },
		sim.Options{Seed: 5, MaxSteps: 1 << 16, Workers: 2},
		func(i int, st sim.Stats) error {
			out += fmt.Sprintf("cell %d: %+v\n", i, st)
			return nil
		})
	if err != nil {
		return "", err
	}
	rr, err := verify.Range(context.Background(), p, verify.CountingPredicate("i", n), 0, 6, petri.Budget{MaxConfigs: 1 << 16}, 2)
	if err != nil {
		return "", err
	}
	for _, r := range rr.Reports {
		out += fmt.Sprintf("verify %v: expected %v ok %v configs %d stable %d\n", r.Input, r.Expected, r.OK, r.Configs, r.StableConfigs)
	}
	return out, nil
}

// One memoized protocol serves concurrent sweeps and verifications
// exactly as a protocol built for the caller alone does.
func TestMakeSharedAcrossGoroutines(t *testing.T) {
	e, _ := Lookup("flock")
	fresh, n, err := e.Make(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sharedWork(fresh, n)
	if err != nil {
		t.Fatal(err)
	}
	// From an empty memo the goroutines race to build and keep flock(4).
	resetMemo()
	const goroutines = 8
	got := make([]string, goroutines)
	protos := make([]*core.Protocol, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, n, err := Make("flock", 4)
			if err != nil {
				errs[g] = err
				return
			}
			protos[g] = p
			got[g], errs[g] = sharedWork(p, n)
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if protos[g] != protos[0] {
			t.Errorf("goroutine %d got its own protocol, want the shared one", g)
		}
		if got[g] != want {
			t.Errorf("goroutine %d on the shared protocol:\n%s\nfresh build:\n%s", g, got[g], want)
		}
	}
}

// resetMemo empties the protocol memo.
func resetMemo() {
	memo.Lock()
	defer memo.Unlock()
	clear(memo.byKey)
	memo.lru.Init()
	memo.cells = 0
}

// checkMemo holds the memo's bookkeeping to its contents: the cell
// total is the sum over the kept protocols and within the budget.
func checkMemo(t *testing.T, when string) {
	t.Helper()
	memo.Lock()
	defer memo.Unlock()
	var sum int64
	for el := memo.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*memoEntry).cells
	}
	if sum != memo.cells || memo.lru.Len() != len(memo.byKey) {
		t.Fatalf("%s: memo holds %d protocols (%d keys) of %d cells, counts %d", when, memo.lru.Len(), len(memo.byKey), sum, memo.cells)
	}
	if memo.cells > memoCells {
		t.Fatalf("%s: memo keeps %d cells, budget %d", when, memo.cells, memoCells)
	}
}

func kept(name string, param int64) bool {
	memo.Lock()
	defer memo.Unlock()
	_, ok := memo.byKey[memoKey{name, param}]
	return ok
}

// The memo keeps protocols within its cell budget, evicting the least
// recently used, never keeps one over the whole budget, and never
// keeps an error.
func TestMakeMemoBudget(t *testing.T) {
	resetMemo()
	defer resetMemo()

	sh, err := ShapeOf("flock", 64)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Cells() <= memoCells {
		t.Fatalf("flock(64) is %d cells, want over the %d budget", sh.Cells(), memoCells)
	}
	p1, _, err := Make("flock", 64)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, _ := Make("flock", 64)
	if p1 == p2 || kept("flock", 64) {
		t.Error("oversize flock(64) was kept")
	}
	checkMemo(t, "after oversize")

	first, _, _ := Make("power2", 3)
	for param := int64(4); param <= 40; param++ {
		if _, _, err := Make("flock", param); err != nil {
			t.Fatal(err)
		}
		checkMemo(t, fmt.Sprintf("after flock(%d)", param))
		if !kept("flock", param) {
			t.Errorf("flock(%d) was not kept", param)
		}
		// Touching power2(3) keeps it most recently used.
		if p, _, _ := Make("power2", 3); p != first {
			t.Fatalf("power2(3) rebuilt after flock(%d)", param)
		}
	}
	if kept("flock", 4) {
		t.Error("flock(4), least recently used, survived flock(4..40)")
	}

	e, _ := Lookup("example41")
	_, _, want := e.Make(0)
	for i := 0; i < 3; i++ {
		_, _, err := Make("example41", 0)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: Make(example41, 0) error %v, want %v", i, err, want)
		}
	}
	if kept("example41", 0) {
		t.Error("a rejected parameter was kept")
	}
	checkMemo(t, "at end")
}
