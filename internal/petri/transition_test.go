package petri

import (
	"testing"
	"testing/quick"

	"repro/internal/conf"
)

var tSpace = conf.MustSpace("a", "b", "c")

func mk(t *testing.T, name string, pre, post map[string]int64) Transition {
	t.Helper()
	tr, err := NewTransition(name, conf.MustFromMap(tSpace, pre), conf.MustFromMap(tSpace, post))
	if err != nil {
		t.Fatalf("NewTransition(%s): %v", name, err)
	}
	return tr
}

func TestTransitionBasics(t *testing.T) {
	tr := mk(t, "t", map[string]int64{"a": 2}, map[string]int64{"b": 1, "c": 3})
	if got := tr.Width(); got != 4 {
		t.Errorf("Width = %d, want 4", got)
	}
	if got := tr.NormInf(); got != 3 {
		t.Errorf("NormInf = %d, want 3", got)
	}
	if tr.Conservative() {
		t.Error("non-conservative transition reported conservative")
	}
	delta := tr.Delta()
	iA, _ := tSpace.Index("a")
	iC, _ := tSpace.Index("c")
	if delta[iA] != -2 || delta[iC] != 3 {
		t.Errorf("Delta = %v", delta)
	}
}

func TestTransitionValidation(t *testing.T) {
	other := conf.MustSpace("x")
	if _, err := NewTransition("t", conf.New(tSpace), conf.New(other)); err == nil {
		t.Error("mixed-space transition accepted")
	}
	if _, err := NewTransition("", conf.New(tSpace), conf.New(tSpace)); err == nil {
		t.Error("unnamed transition accepted")
	}
}

func TestFire(t *testing.T) {
	tr := mk(t, "t", map[string]int64{"a": 1, "b": 1}, map[string]int64{"c": 2})
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 1, "b": 2})
	got, ok := tr.Fire(from)
	if !ok {
		t.Fatal("Fire disabled, want enabled")
	}
	want := conf.MustFromMap(tSpace, map[string]int64{"b": 1, "c": 2})
	if !got.Equal(want) {
		t.Errorf("Fire = %v, want %v", got, want)
	}
	if _, ok := tr.Fire(conf.MustFromMap(tSpace, map[string]int64{"a": 1})); ok {
		t.Error("Fire succeeded while disabled")
	}
}

// Property (additivity, Section 2): α —t→ β implies α+ρ —t→ β+ρ.
func TestQuickFireAdditive(t *testing.T) {
	tr := mk(t, "t", map[string]int64{"a": 1, "b": 1}, map[string]int64{"c": 1})
	gen := func(raw [3]uint8) conf.Config {
		m := map[string]int64{}
		for i, name := range []string{"a", "b", "c"} {
			m[name] = int64(raw[i] % 8)
		}
		return conf.MustFromMap(tSpace, m)
	}
	additive := func(x, y [3]uint8) bool {
		alpha, rho := gen(x), gen(y)
		beta, ok := tr.Fire(alpha)
		if !ok {
			return true // vacuous
		}
		beta2, ok2 := tr.Fire(alpha.Add(rho))
		return ok2 && beta2.Equal(beta.Add(rho))
	}
	if err := quick.Check(additive, nil); err != nil {
		t.Errorf("firing not additive: %v", err)
	}
}

func TestBackFire(t *testing.T) {
	// t: a -> 2b. To cover {b:3} we need max(pre, target−Δ):
	// a: max(1, 0−(−1)) = 1; b: max(0, 3−2) = 1.
	tr := mk(t, "t", map[string]int64{"a": 1}, map[string]int64{"b": 2})
	n, err := New(tSpace, []Transition{tr})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	target := conf.MustFromMap(tSpace, map[string]int64{"b": 3})
	dst := make([]int64, tSpace.Len())
	n.Index().BackFireInto(0, target.RawCounts(), dst)
	got := conf.View(tSpace, dst)
	want := conf.MustFromMap(tSpace, map[string]int64{"a": 1, "b": 1})
	if !got.Equal(want) {
		t.Errorf("BackFireInto = %v, want %v", got, want)
	}
	// Firing t from the BackFireInto result must cover the target.
	after, ok := tr.Fire(got)
	if !ok || !target.Leq(after) {
		t.Errorf("BackFireInto result does not cover: %v, %v", after, ok)
	}
}

func TestRestrictTransition(t *testing.T) {
	tr := mk(t, "t", map[string]int64{"a": 1, "b": 1}, map[string]int64{"c": 2})
	q := conf.MustSpace("a", "c")
	r := tr.Restrict(q)
	if r.Pre.GetName("a") != 1 || r.Pre.Agents() != 1 {
		t.Errorf("restricted pre = %v", r.Pre)
	}
	if r.Post.GetName("c") != 2 || r.Post.Agents() != 2 {
		t.Errorf("restricted post = %v", r.Post)
	}
}
