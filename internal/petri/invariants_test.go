package petri

import (
	"testing"

	"repro/internal/conf"
)

func TestPInvariantsChain(t *testing.T) {
	// a -> b -> c is conservative: the all-ones vector must generate.
	n := chainNet(t)
	inv, err := n.PInvariants()
	if err != nil {
		t.Fatalf("PInvariants: %v", err)
	}
	if len(inv) == 0 {
		t.Fatal("no invariants for a conservative net")
	}
	foundOnes := false
	for _, y := range inv {
		all1 := true
		for _, v := range y {
			if v != 1 {
				all1 = false
			}
		}
		if all1 {
			foundOnes = true
		}
	}
	if !foundOnes {
		t.Errorf("all-ones invariant missing: %v", inv)
	}
	if !n.HasUniformInvariant() {
		t.Error("HasUniformInvariant = false for conservative net")
	}
}

func TestPInvariantsPump(t *testing.T) {
	// pump: a -> a+b creates agents: invariants must assign b weight 0.
	n, err := New(tSpace, []Transition{
		mk(t, "pump", map[string]int64{"a": 1}, map[string]int64{"a": 1, "b": 1}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if n.HasUniformInvariant() {
		t.Error("pumping net reported conservative")
	}
	inv, err := n.PInvariants()
	if err != nil {
		t.Fatalf("PInvariants: %v", err)
	}
	iB, _ := tSpace.Index("b")
	for _, y := range inv {
		if y[iB] != 0 {
			t.Errorf("invariant %v weights the pumped place b", y)
		}
	}
}

// Every generated invariant is genuinely preserved along random
// executions.
func TestPInvariantsPreserved(t *testing.T) {
	n, err := New(tSpace, []Transition{
		mk(t, "t1", map[string]int64{"a": 2}, map[string]int64{"b": 1}),
		mk(t, "t2", map[string]int64{"b": 1}, map[string]int64{"a": 2}),
		mk(t, "t3", map[string]int64{"b": 2}, map[string]int64{"c": 2}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inv, err := n.PInvariants()
	if err != nil {
		t.Fatalf("PInvariants: %v", err)
	}
	if len(inv) == 0 {
		t.Fatal("expected at least one invariant (e.g. a + 2b + 2c)")
	}
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 4, "b": 1})
	rs, err := n.Reach(from, Budget{MaxConfigs: 1 << 12})
	if err != nil {
		t.Fatalf("Reach: %v", err)
	}
	for _, y := range inv {
		want := InvariantValue(y, from)
		rs.ForEach(func(_ int, c conf.Config) bool {
			if got := InvariantValue(y, c); got != want {
				t.Errorf("invariant %v not preserved: %d vs %d at %v", y, got, want, c)
				return false
			}
			return true
		})
	}
}

func TestPInvariantsNoTransitions(t *testing.T) {
	n, err := New(tSpace, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := n.PInvariants(); err == nil {
		t.Error("invariants of an empty net accepted")
	}
}
