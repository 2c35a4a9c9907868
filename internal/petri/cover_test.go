package petri

import (
	"testing"

	"repro/internal/conf"
)

func TestCoverable(t *testing.T) {
	n := chainNet(t) // a -> b -> c
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 3})
	tests := []struct {
		name   string
		target map[string]int64
		want   bool
	}{
		{"reach all c", map[string]int64{"c": 3}, true},
		{"partial split", map[string]int64{"b": 1, "c": 2}, true},
		{"too many", map[string]int64{"c": 4}, false},
		{"need a back", map[string]int64{"a": 1, "c": 3}, false},
		{"zero target", nil, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			target := conf.MustFromMap(tSpace, tc.target)
			got, err := n.Coverable(from, target, 0)
			if err != nil {
				t.Fatalf("Coverable: %v", err)
			}
			if got != tc.want {
				t.Errorf("Coverable = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCoverableUnbounded(t *testing.T) {
	// pump: a -> a+b makes arbitrarily many b coverable.
	n, err := New(tSpace, []Transition{
		mk(t, "pump", map[string]int64{"a": 1}, map[string]int64{"a": 1, "b": 1}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	from := conf.MustUnit(tSpace, "a")
	target := conf.MustFromMap(tSpace, map[string]int64{"b": 50})
	got, err := n.Coverable(from, target, 0)
	if err != nil || !got {
		t.Fatalf("Coverable = %v, %v; want true", got, err)
	}
	// But c is never produced.
	impossible := conf.MustFromMap(tSpace, map[string]int64{"c": 1})
	got, err = n.Coverable(from, impossible, 0)
	if err != nil || got {
		t.Fatalf("Coverable(c) = %v, %v; want false", got, err)
	}
}

func TestShortestCoveringWord(t *testing.T) {
	n := chainNet(t)
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 2})
	target := conf.MustFromMap(tSpace, map[string]int64{"c": 2})
	w, err := n.ShortestCoveringWord(from, target, Budget{})
	if err != nil {
		t.Fatalf("ShortestCoveringWord: %v", err)
	}
	if w == nil {
		t.Fatal("no witness found")
	}
	if len(w.Word) != 4 {
		t.Errorf("witness length = %d, want 4", len(w.Word))
	}
	end, err := n.FireWord(from, w.Word)
	if err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	if !target.Leq(end) {
		t.Errorf("witness end %v does not cover %v", end, target)
	}
	if !end.Equal(w.Reached) {
		t.Errorf("Reached = %v, replay = %v", w.Reached, end)
	}
}

func TestShortestCoveringWordTrivial(t *testing.T) {
	n := chainNet(t)
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 1, "c": 1})
	target := conf.MustFromMap(tSpace, map[string]int64{"c": 1})
	w, err := n.ShortestCoveringWord(from, target, Budget{})
	if err != nil || w == nil {
		t.Fatalf("witness = %v, %v", w, err)
	}
	if len(w.Word) != 0 {
		t.Errorf("trivial cover needs word of length %d, want 0", len(w.Word))
	}
}

func TestShortestCoveringWordNotCoverable(t *testing.T) {
	n := chainNet(t)
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 1})
	target := conf.MustFromMap(tSpace, map[string]int64{"c": 2})
	w, err := n.ShortestCoveringWord(from, target, Budget{})
	if err != nil {
		t.Fatalf("ShortestCoveringWord: %v", err)
	}
	if w != nil {
		t.Errorf("witness for non-coverable target: %v", w)
	}
}

// The shortest witness must agree with the length found by exhaustive
// closure search.
func TestShortestCoveringWordMinimal(t *testing.T) {
	n, err := New(tSpace, []Transition{
		mk(t, "split", map[string]int64{"a": 1}, map[string]int64{"b": 2}),
		mk(t, "join", map[string]int64{"b": 2}, map[string]int64{"c": 1}),
		mk(t, "slow", map[string]int64{"b": 1}, map[string]int64{"c": 1}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 1})
	target := conf.MustFromMap(tSpace, map[string]int64{"c": 1})
	w, err := n.ShortestCoveringWord(from, target, Budget{})
	if err != nil || w == nil {
		t.Fatalf("witness = %v, %v", w, err)
	}
	// split then join covers in 2 steps; split+slow also 2; so 2.
	if len(w.Word) != 2 {
		t.Errorf("witness length = %d, want 2", len(w.Word))
	}
}

func TestKarpMillerBounded(t *testing.T) {
	n := chainNet(t)
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 2})
	tree, err := n.KarpMiller(from, Budget{})
	if err != nil {
		t.Fatalf("KarpMiller: %v", err)
	}
	if !tree.Bounded() {
		t.Error("conservative chain net reported unbounded")
	}
	if !tree.Covers(conf.MustFromMap(tSpace, map[string]int64{"c": 2})) {
		t.Error("KM tree misses coverable target")
	}
	if tree.Covers(conf.MustFromMap(tSpace, map[string]int64{"c": 3})) {
		t.Error("KM tree covers impossible target")
	}
}

func TestKarpMillerUnbounded(t *testing.T) {
	n, err := New(tSpace, []Transition{
		mk(t, "pump", map[string]int64{"a": 1}, map[string]int64{"a": 1, "b": 1}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tree, err := n.KarpMiller(conf.MustUnit(tSpace, "a"), Budget{})
	if err != nil {
		t.Fatalf("KarpMiller: %v", err)
	}
	if tree.Bounded() {
		t.Error("pumping net reported bounded")
	}
	if !tree.Covers(conf.MustFromMap(tSpace, map[string]int64{"b": 1_000_000})) {
		t.Error("ω should cover any b count")
	}
	sets := tree.PumpableSets()
	if len(sets) == 0 {
		t.Fatal("no pumpable sets found")
	}
	iB, _ := tSpace.Index("b")
	found := false
	for _, s := range sets {
		for _, p := range s {
			if p == iB {
				found = true
			}
		}
	}
	if !found {
		t.Error("place b not reported pumpable")
	}
}

func TestExtMarkingOrder(t *testing.T) {
	a := ExtMarking{1, 2, 3}
	b := ExtMarking{1, Omega, 3}
	if !a.Leq(b) {
		t.Error("concrete ≤ ω failed")
	}
	if b.Leq(a) {
		t.Error("ω ≤ concrete succeeded")
	}
	if !b.Leq(b.clone()) || !b.Equal(b.clone()) {
		t.Error("clone order/equality failed")
	}
}

func (m ExtMarking) clone() ExtMarking {
	out := make(ExtMarking, len(m))
	copy(out, m)
	return out
}
