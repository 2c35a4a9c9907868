package registry

import (
	"math"
	"testing"
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
