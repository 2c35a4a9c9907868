package ctrlnet

import (
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/conf"
	"repro/internal/petri"
)

// lemma73Net builds a control net whose cycles have opposite-sign
// displacements so the linear system (1) is non-trivial:
//
// Petri places {x, y, z}; control states {s0, s1}.
//
//	e0: s0 -(x→y)-> s1     Δ = (−1, +1, 0)
//	e1: s1 -(y→x)-> s0     Δ = (+1, −1, 0)
//	e2: s1 -(y→y+z)-> s1   Δ = (0, 0, +1)   pumps z
//	e3: s1 -(z→∅)-> s1     Δ = (0, 0, −1)   drains z
func lemma73Net(t *testing.T) *Net {
	t.Helper()
	n, err := New([]string{"s0", "s1"}, lemma73PNet(t), []Edge{
		{From: "s0", Trans: 0, To: "s1"},
		{From: "s1", Trans: 1, To: "s0"},
		{From: "s1", Trans: 2, To: "s1"},
		{From: "s1", Trans: 3, To: "s1"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// lemma73PNet is the Petri net under lemma73Net's control graph.
func lemma73PNet(t *testing.T) *petri.Net {
	t.Helper()
	space := conf.MustSpace("x", "y", "z")
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
		mkTr("pump", u("y"), u("y").Add(u("z"))),
		mkTr("drain", u("z"), conf.New(space)),
	})
	if err != nil {
		t.Fatalf("petri: %v", err)
	}
	return pnet
}

// buildTheta assembles a multicycle from cycle templates repeated the
// given number of times.
func buildTheta(cycle []int, times int) [][]int {
	out := make([][]int, times)
	for i := range out {
		out[i] = cycle
	}
	return out
}

func TestLemma73SignPreservation(t *testing.T) {
	n := lemma73Net(t)
	// Θ = 10 copies of the pumping cycle (e0, e2, e2, e1): Δ = (0,0,+20),
	// Parikh(e0)=Parikh(e1)=10, Parikh(e2)=20, Parikh(e3)=0.
	theta := buildTheta([]int{0, 2, 2, 1}, 10)
	zero := []bool{false, false, false} // Q = ∅
	k := int64(5)
	res, err := n.Lemma73(theta, zero, k)
	if err != nil {
		t.Fatalf("Lemma73: %v", err)
	}
	// Δ(Θ)(z) = 20 ≥ k ⟹ Δ(Θ')(z) > 0.
	if res.Delta[2] <= 0 {
		t.Errorf("Δ(Θ')(z) = %d, want > 0", res.Delta[2])
	}
	// Δ(Θ)(x) = Δ(Θ)(y) = 0 ⟹ Δ(Θ') respects signs (here = 0 since
	// sign(x)=sign(y)=+1 means ≥ 0; and ≤ is not forced).
	if res.Delta[0] < 0 || res.Delta[1] < 0 {
		t.Errorf("Δ(Θ') = %v violates sign preservation", res.Delta)
	}
	// Heavy edges e0, e1, e2 (counts 10, 10, 20 ≥ 5) must stay present.
	for _, e := range []int{0, 1, 2} {
		if res.Parikh[e] == 0 {
			t.Errorf("heavy edge %d dropped from Θ'", e)
		}
	}
	// Every multiplicity corresponds to a genuine cycle.
	for i, c := range res.Cycles {
		if !n.IsCycle(c) {
			t.Errorf("Θ' element %d is not a cycle", i)
		}
		if res.Mult[i] <= 0 {
			t.Errorf("Θ' multiplicity %d not positive", i)
		}
	}
}

func TestLemma73ZeroConstraint(t *testing.T) {
	n := lemma73Net(t)
	// Θ balances pumping (+2 z per cycle, 6 cycles) against draining
	// (−1 z per cycle, 12 cycles): Δ(Θ)(z) = 0 so the hypothesis holds
	// for Q = {z}, and Θ' must keep Δ(Θ')(z) = 0 exactly.
	theta := append(buildTheta([]int{0, 2, 2, 1}, 6), buildTheta([]int{0, 3, 1}, 12)...)
	zero := []bool{false, false, true} // Q = {z}
	res, err := n.Lemma73(theta, zero, 6)
	if err != nil {
		t.Fatalf("Lemma73: %v", err)
	}
	if res.Delta[2] != 0 {
		t.Errorf("Δ(Θ')(z) = %d, want 0 (z ∈ Q)", res.Delta[2])
	}
	// Heavy edges (e0: 18, e1: 18, e2: 12, e3: 12, all ≥ 6) must be
	// present.
	for e := 0; e < 4; e++ {
		if res.Parikh[e] == 0 {
			t.Errorf("heavy edge %d dropped", e)
		}
	}
}

func TestLemma73NegativeSide(t *testing.T) {
	n := lemma73Net(t)
	// Draining multicycle: Δ(z) = −6 ≤ −k for k=3.
	theta := buildTheta([]int{0, 3, 1}, 6)
	zero := []bool{false, false, false}
	res, err := n.Lemma73(theta, zero, 3)
	if err != nil {
		t.Fatalf("Lemma73: %v", err)
	}
	if res.Delta[2] >= 0 {
		t.Errorf("Δ(Θ')(z) = %d, want < 0", res.Delta[2])
	}
}

func TestLemma73Validation(t *testing.T) {
	n := lemma73Net(t)
	theta := buildTheta([]int{0, 2, 2, 1}, 2)
	if _, err := n.Lemma73(theta, []bool{true}, 1); err == nil {
		t.Error("bad mask accepted")
	}
	if _, err := n.Lemma73(theta, []bool{false, false, false}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := n.Lemma73(nil, []bool{false, false, false}, 1); err == nil {
		t.Error("empty Θ accepted")
	}
	if _, err := n.Lemma73([][]int{{0}}, []bool{false, false, false}, 1); err == nil {
		t.Error("non-cycle element accepted")
	}
}

func TestLemma73HypothesisViolation(t *testing.T) {
	n := lemma73Net(t)
	// Pump-only Θ has Δ(Θ)(z) = +20; with z ∈ Q and k = 5 the lemma's
	// hypothesis k > ‖Δ(Θ)|Q‖₁·(…) is violated and the implementation
	// must refuse with a diagnostic rather than produce a wrong Θ'.
	theta := buildTheta([]int{0, 2, 2, 1}, 10)
	zero := []bool{false, false, true}
	_, err := n.Lemma73(theta, zero, 5)
	if err == nil {
		t.Fatal("expected failure for violated hypothesis")
	}
	if !strings.Contains(err.Error(), "hypothesis") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// With Q on states untouched by the cycles' net displacement, a tiny k
// still succeeds because cycle displacements on x, y cancel within each
// simple cycle.
func TestLemma73QOnBalancedStates(t *testing.T) {
	n := lemma73Net(t)
	theta := buildTheta([]int{0, 2, 2, 1}, 10)
	zero := []bool{true, true, false} // Q = {x, y}
	res, err := n.Lemma73(theta, zero, 5)
	if err != nil {
		t.Fatalf("Lemma73: %v", err)
	}
	if res.Delta[0] != 0 || res.Delta[1] != 0 {
		t.Errorf("Δ(Θ') = %v, want zeros on Q", res.Delta)
	}
	if res.Delta[2] <= 0 {
		t.Errorf("Δ(Θ')(z) = %d, want > 0 (heavy state)", res.Delta[2])
	}
}

// The replacement multicycle obeys the Lemma 7.3 length bound
// |Θ'| ≤ (|E|+d)(1+2|S|‖T‖∞)^(d(d+1)).
func TestLemma73LengthBound(t *testing.T) {
	n := lemma73Net(t)
	theta := append(buildTheta([]int{0, 2, 2, 1}, 6), buildTheta([]int{0, 3, 1}, 12)...)
	res, err := n.Lemma73(theta, []bool{false, false, true}, 6)
	if err != nil {
		t.Fatalf("Lemma73: %v", err)
	}
	pnet := lemma73PNet(t)
	bound := bounds.Lemma73MulticycleLength(pnet.Space().Len(), n.NumEdges(), int64(n.NumStates()), pnet.NormInf())
	if !bound.GeqInt(res.Length) {
		t.Errorf("|Θ'| = %d exceeds Lemma 7.3 bound %v", res.Length, bound)
	}
}

// End-to-end shape of the Section 8 usage: Θ' is total on heavy edges,
// Euler-combines into a single cycle.
func TestLemma73ThenEuler(t *testing.T) {
	n := lemma73Net(t)
	// 8 pump (+16 z) against 16 drain (−16 z): Δ(Θ)(z) = 0, Q = {z}.
	theta := append(buildTheta([]int{0, 2, 2, 1}, 8), buildTheta([]int{0, 3, 1}, 16)...)
	zero := []bool{false, false, true}
	res, err := n.Lemma73(theta, zero, 8)
	if err != nil {
		t.Fatalf("Lemma73: %v", err)
	}
	// If Θ' is total (it is here: all four edges are heavy), the Euler
	// lemma must combine it into one cycle with the same Parikh image.
	cyc, err := n.EulerCycle(res.Parikh)
	if err != nil {
		t.Fatalf("EulerCycle: %v", err)
	}
	got := n.Parikh(cyc)
	for e := range got {
		if got[e] != res.Parikh[e] {
			t.Errorf("edge %d: Euler Parikh %d, want %d", e, got[e], res.Parikh[e])
		}
	}
}
