package ctrlnet

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/petri"
)

// twoStateNet builds a strongly connected control net over control
// states {s0, s1} and Petri places {x, y}:
//
//	e0: s0 -(x→y)-> s1
//	e1: s1 -(y→x)-> s0
//	e2: s1 -(y→x)-> s1   (self loop)
func twoStateNet(t *testing.T) *Net {
	t.Helper()
	space := conf.MustSpace("x", "y")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	mkTr := func(name string, pre, post conf.Config) petri.Transition {
		tr, err := petri.NewTransition(name, pre, post)
		if err != nil {
			t.Fatalf("transition: %v", err)
		}
		return tr
	}
	pnet, err := petri.New(space, []petri.Transition{
		mkTr("xy", u("x"), u("y")),
		mkTr("yx", u("y"), u("x")),
	})
	if err != nil {
		t.Fatalf("petri net: %v", err)
	}
	n, err := New([]string{"s0", "s1"}, pnet, []Edge{
		{From: "s0", Trans: 0, To: "s1"},
		{From: "s1", Trans: 1, To: "s0"},
		{From: "s1", Trans: 1, To: "s1"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	space := conf.MustSpace("x")
	pnet, err := petri.New(space, nil)
	if err != nil {
		t.Fatalf("petri net: %v", err)
	}
	if _, err := New(nil, pnet, nil); err == nil {
		t.Error("no control-states accepted")
	}
	if _, err := New([]string{"a"}, nil, nil); err == nil {
		t.Error("nil Petri net accepted")
	}
	if _, err := New([]string{"a", "a"}, pnet, nil); err == nil {
		t.Error("duplicate control-states accepted")
	}
	if _, err := New([]string{"a"}, pnet, []Edge{{From: "z", Trans: 0, To: "a"}}); err == nil {
		t.Error("unknown source state accepted")
	}
	if _, err := New([]string{"a"}, pnet, []Edge{{From: "a", Trans: 5, To: "a"}}); err == nil {
		t.Error("bad transition index accepted")
	}
}

func TestPathsAndCycles(t *testing.T) {
	n := twoStateNet(t)
	from, to, err := n.ValidatePath([]int{0, 2, 1})
	if err != nil || from != "s0" || to != "s0" {
		t.Fatalf("ValidatePath = %q,%q,%v", from, to, err)
	}
	if !n.IsCycle([]int{0, 2, 1}) {
		t.Error("s0->s1->s1->s0 not a cycle")
	}
	if n.IsCycle([]int{0}) {
		t.Error("s0->s1 reported as cycle")
	}
	if _, _, err := n.ValidatePath([]int{0, 0}); err == nil {
		t.Error("non-chaining path accepted")
	}
	if _, _, err := n.ValidatePath(nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestParikhAndDisplacement(t *testing.T) {
	n := twoStateNet(t)
	cyc := []int{0, 2, 1} // xy, yx, yx
	p := n.Parikh(cyc)
	if p[0] != 1 || p[1] != 1 || p[2] != 1 {
		t.Errorf("Parikh = %v", p)
	}
	// Δ = (x→y) + 2·(y→x) = x: +1, y: −1.
	d := n.Displacement(cyc)
	if d[0] != 1 || d[1] != -1 {
		t.Errorf("Displacement = %v", d)
	}
	label := make([]int, len(cyc))
	for i, ei := range cyc {
		label[i] = n.edges[ei].Trans
	}
	if len(label) != 3 || label[0] != 0 || label[1] != 1 || label[2] != 1 {
		t.Errorf("Label = %v", label)
	}
}

func TestStronglyConnected(t *testing.T) {
	n := twoStateNet(t)
	if !n.StronglyConnected() {
		t.Error("two-state net not strongly connected")
	}
	space := conf.MustSpace("x")
	pnet, _ := petri.New(space, []petri.Transition{})
	oneWay, err := New([]string{"a", "b"}, pnet, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if oneWay.StronglyConnected() {
		t.Error("edgeless 2-state net reported strongly connected")
	}
}

func TestSimpleCycleThrough(t *testing.T) {
	n := twoStateNet(t)
	for e := 0; e < n.NumEdges(); e++ {
		cyc, err := n.SimpleCycleThrough(e)
		if err != nil {
			t.Fatalf("edge %d: %v", e, err)
		}
		if !n.IsCycle(cyc) {
			t.Fatalf("edge %d: result %v not a cycle", e, cyc)
		}
		if cyc[0] != e {
			t.Errorf("edge %d: cycle %v does not start with the edge", e, cyc)
		}
		if len(cyc) > n.NumStates() {
			t.Errorf("edge %d: cycle length %d > |S| = %d", e, len(cyc), n.NumStates())
		}
	}
	if _, err := n.SimpleCycleThrough(99); err == nil {
		t.Error("bad edge accepted")
	}
}

func TestTotalCycleLemma72(t *testing.T) {
	n := twoStateNet(t)
	cyc, err := n.TotalCycle()
	if err != nil {
		t.Fatalf("TotalCycle: %v", err)
	}
	if !n.IsCycle(cyc) {
		t.Fatal("total cycle is not a cycle")
	}
	p := n.Parikh(cyc)
	for e, c := range p {
		if c == 0 {
			t.Errorf("edge %d missing from total cycle", e)
		}
	}
	// Lemma 7.2 bound: |θ| ≤ |E|·|S| = 3·2 = 6.
	if len(cyc) > n.NumEdges()*n.NumStates() {
		t.Errorf("total cycle length %d exceeds |E||S| = %d", len(cyc), n.NumEdges()*n.NumStates())
	}
}

func TestEulerCycle(t *testing.T) {
	n := twoStateNet(t)
	// Multicycle: 2×(e0,e1) + 1×(e2): balanced, total.
	parikh := []int64{2, 2, 1}
	cyc, err := n.EulerCycle(parikh)
	if err != nil {
		t.Fatalf("EulerCycle: %v", err)
	}
	if !n.IsCycle(cyc) {
		t.Fatal("Euler output not a cycle")
	}
	got := n.Parikh(cyc)
	for e := range parikh {
		if got[e] != parikh[e] {
			t.Errorf("edge %d: Parikh %d, want %d", e, got[e], parikh[e])
		}
	}
}

func TestEulerCycleRejectsImbalance(t *testing.T) {
	n := twoStateNet(t)
	if _, err := n.EulerCycle([]int64{1, 0, 0}); err == nil {
		t.Error("unbalanced Parikh accepted")
	}
	if _, err := n.EulerCycle([]int64{0, 0, 0}); err == nil {
		t.Error("empty multicycle accepted")
	}
	if _, err := n.EulerCycle([]int64{1, 1}); err == nil {
		t.Error("wrong-length Parikh accepted")
	}
	if _, err := n.EulerCycle([]int64{-1, 0, 0}); err == nil {
		t.Error("negative Parikh accepted")
	}
}

func TestDecomposeSimple(t *testing.T) {
	n := twoStateNet(t)
	// s0 -e0-> s1 -e2-> s1 -e1-> s0: peels into [e2] and [e0,e1].
	cyc := []int{0, 2, 1}
	parts, err := n.DecomposeSimple(cyc)
	if err != nil {
		t.Fatalf("DecomposeSimple: %v", err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %v, want 2 simple cycles", parts)
	}
	// Parikh images must sum to the original.
	sum := make([]int64, n.NumEdges())
	for _, part := range parts {
		if !n.IsCycle(part) {
			t.Errorf("part %v is not a cycle", part)
		}
		for e, c := range n.Parikh(part) {
			sum[e] += c
		}
		// Simplicity: no control-state repeats, so length ≤ |S|.
		if len(part) > n.NumStates() {
			t.Errorf("part %v longer than |S|", part)
		}
	}
	orig := n.Parikh(cyc)
	for e := range orig {
		if sum[e] != orig[e] {
			t.Errorf("edge %d: decomposition Parikh %d, want %d", e, sum[e], orig[e])
		}
	}

	if _, err := n.DecomposeSimple([]int{0}); err == nil {
		t.Error("non-cycle accepted")
	}
}
