package bounds

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestMagnitudeExactSmall(t *testing.T) {
	m := FromInt(1000)
	if got := m.Log10(); math.Abs(got-3) > 1e-9 {
		t.Errorf("Log10(1000) = %v, want 3", got)
	}
	e, ok := m.Exact()
	if !ok || e.Int64() != 1000 {
		t.Errorf("Exact = %v, %v", e, ok)
	}
	if m.String() != "1000" {
		t.Errorf("String = %q", m.String())
	}
}

func TestMagnitudeExactIsCopy(t *testing.T) {
	m := FromInt(7)
	e, _ := m.Exact()
	e.SetInt64(99)
	e2, _ := m.Exact()
	if e2.Int64() != 7 {
		t.Error("Exact exposed internal big.Int")
	}
}

func TestPowExactAndInexact(t *testing.T) {
	m := PowInt(2, 10)
	if e, ok := m.Exact(); !ok || e.Int64() != 1024 {
		t.Fatalf("2^10 = %v", m)
	}
	// 10^(10^7) has 10^7 digits: within MaxExactDigits? 10^7 > 10^5, so
	// inexact.
	huge := Pow(10, big.NewInt(10_000_000))
	if huge.IsExact() {
		t.Error("10^10^7 materialized exactly")
	}
	if math.Abs(huge.Log10()-1e7) > 1 {
		t.Errorf("log10 = %v, want 1e7", huge.Log10())
	}
}

func TestPowEdgeCases(t *testing.T) {
	if m := Pow(0, big.NewInt(0)); !m.GeqInt(1) || m.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("0^0 = %v, want 1", m)
	}
	if m := Pow(0, big.NewInt(5)); m.Cmp(big.NewInt(0)) != 0 {
		t.Errorf("0^5 = %v, want 0", m)
	}
	if m := Pow(7, big.NewInt(0)); m.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("7^0 = %v, want 1", m)
	}
}

func TestMulInt(t *testing.T) {
	m := FromInt(6).MulInt(7)
	if e, ok := m.Exact(); !ok || e.Int64() != 42 {
		t.Fatalf("6·7 = %v", m)
	}
	z := FromLog10(100).MulInt(0)
	if z.Cmp(big.NewInt(0)) != 0 {
		t.Errorf("x·0 = %v, want 0", z)
	}
	big10 := FromLog10(300).MulInt(10)
	if math.Abs(big10.Log10()-301) > 1e-9 {
		t.Errorf("log10 = %v, want 301", big10.Log10())
	}
}

func TestCmp(t *testing.T) {
	m := FromInt(100)
	if m.Cmp(big.NewInt(99)) != 1 || m.Cmp(big.NewInt(100)) != 0 || m.Cmp(big.NewInt(101)) != -1 {
		t.Error("exact Cmp wrong")
	}
	inexact := FromLog10(50)
	if inexact.Cmp(big.NewInt(1000)) != 1 {
		t.Error("inexact Cmp wrong for large gap")
	}
}

// Property: Pow agrees with big.Int exponentiation on small inputs.
func TestQuickPowMatchesBig(t *testing.T) {
	f := func(b, e uint8) bool {
		base := int64(b%20) + 1
		exp := int64(e % 40)
		m := PowInt(base, exp)
		want := new(big.Int).Exp(big.NewInt(base), big.NewInt(exp), nil)
		return m.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRackoff(t *testing.T) {
	// d=2, ‖ρ‖∞=1, ‖T‖∞=1: (1+1)^(2^2) = 16.
	m := Rackoff(2, 1, 1)
	if m.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("Rackoff = %v, want 16", m)
	}
	// d=10 is astronomically large but must still produce a log10.
	big10 := Rackoff(10, 1, 1)
	if big10.Log10() < 1e9 {
		t.Errorf("Rackoff(10) log10 = %v, want ≥ 1e9", big10.Log10())
	}
}

func TestStabilizationH(t *testing.T) {
	// d=2, ‖T‖∞=1: 1·(1+1)^(2^2) = 16.
	m := StabilizationH(2, 1)
	if m.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("StabilizationH = %v, want 16", m)
	}
	// Monotone in d.
	if StabilizationH(3, 1).Log10() <= m.Log10() {
		t.Error("StabilizationH not monotone in d")
	}
}

func TestTheorem61B(t *testing.T) {
	// d=1: D=1, exponent 1·(1+(2+1)^2) = 10; base 4+4+2 = 10 with
	// normNet=normRho=1: 10^10.
	m := Theorem61B(1, 1, 1)
	want := new(big.Int).Exp(big.NewInt(10), big.NewInt(10), nil)
	if m.Cmp(want) != 0 {
		t.Errorf("Theorem61B(1,1,1) = %v, want 10^10", m)
	}
	if Theorem61B(0, 5, 5).Cmp(big.NewInt(1)) != 0 {
		t.Error("d=0 should be trivial")
	}
	// Monotonicity in every argument.
	base := Theorem61B(2, 1, 1).Log10()
	if Theorem61B(3, 1, 1).Log10() <= base ||
		Theorem61B(2, 2, 1).Log10() <= base ||
		Theorem61B(2, 1, 2).Log10() <= base {
		t.Error("Theorem61B not monotone")
	}
}

func TestLemma62Length(t *testing.T) {
	// d=0: bound is s itself.
	if m := Lemma62Length(0, 7, 1, 1); m.Cmp(big.NewInt(7)) != 0 {
		t.Errorf("Lemma62Length(d=0) = %v, want 7", m)
	}
	// d=1, s=1, ‖T‖∞=1, ‖ρ‖∞=1: (1 + 1·(1+1+1)^1)·1 = 4.
	if m := Lemma62Length(1, 1, 1, 1); m.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("Lemma62Length = %v, want 4", m)
	}
}

func TestLemma72(t *testing.T) {
	if got := Lemma72CycleLength(6, 4); got != 24 {
		t.Errorf("Lemma72CycleLength = %d, want 24", got)
	}
}

func TestPottier(t *testing.T) {
	// d=3, Σ‖a‖∞ = 4: 6^3 = 216.
	if m := Pottier(3, 4); m.Cmp(big.NewInt(216)) != 0 {
		t.Errorf("Pottier = %v, want 216", m)
	}
}

func TestLemma73(t *testing.T) {
	// d=1, |E|=2, |S|=1, ‖T‖∞=1: (2+1)·(1+2)^(1·2) = 27.
	if m := Lemma73MulticycleLength(1, 2, 1, 1); m.Cmp(big.NewInt(27)) != 0 {
		t.Errorf("Lemma73MulticycleLength = %v, want 27", m)
	}
}

func TestSection8Cascade(t *testing.T) {
	s, err := NewSection8(2, 1, 1)
	if err != nil {
		t.Fatalf("NewSection8: %v", err)
	}
	// d=2: (d−1)^(d−1)=1, exponent 1·(1+(2+1)^2)=10, base 10: b = 10^10.
	wantB := new(big.Int).Exp(big.NewInt(10), big.NewInt(10), nil)
	if s.B.Cmp(wantB) != 0 {
		t.Errorf("B = %v, want 10^10", s.B)
	}
	// h = d(1+‖T‖∞)b = 4·10^10.
	wantH := new(big.Int).Mul(big.NewInt(4), wantB)
	if s.H.Cmp(wantH) != 0 {
		t.Errorf("H = %v, want 4·10^10", s.H)
	}
	// The cascade is increasing: h ≤ a ≤ ℓ ≤ n (for d=2: exponents
	// 1 < 7 < 20 < 28).
	if !(s.H.Log10() < s.A.Log10() && s.A.Log10() < s.L.Log10() && s.L.Log10() < s.N.Log10()) {
		t.Errorf("cascade not increasing: h=%v a=%v ℓ=%v n=%v",
			s.H.Log10(), s.A.Log10(), s.L.Log10(), s.N.Log10())
	}
	if _, err := NewSection8(1, 1, 1); err == nil {
		t.Error("d=1 accepted")
	}
}

// The paper's final simplification: the Section 8 bound n ≤ h^(5d²+2d+4)
// is at most the headline (4+4w+2L)^(d(d+2)²) whenever w,L ≥ the norms
// used (the proof shows h ≤ b² and r ≤ d(d+2)²).
func TestSection8ImpliesTheorem43(t *testing.T) {
	for d := 2; d <= 5; d++ {
		s, err := NewSection8(d, 1, 1)
		if err != nil {
			t.Fatalf("NewSection8(%d): %v", d, err)
		}
		headline := Theorem43MaxN(d, 1, 1)
		if s.N.Log10() > headline.Log10() {
			t.Errorf("d=%d: cascade bound 1e%.3g exceeds headline 1e%.3g",
				d, s.N.Log10(), headline.Log10())
		}
	}
}

func TestTheorem43MaxN(t *testing.T) {
	// d=1, w=1, L=0: exponent 1^9 = 1, so the bound is 4+4 = 8.
	m := Theorem43MaxN(1, 1, 0)
	if m.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("Theorem43MaxN = %v, want 8", m)
	}
	// d=2, w=1, L=0: exponent 2^16 = 65536, bound 8^65536.
	m2 := Theorem43MaxN(2, 1, 0)
	wantLog := 65536 * math.Log10(8)
	if math.Abs(m2.Log10()-wantLog) > 1 {
		t.Errorf("Theorem43MaxN(2) log10 = %v, want %v", m2.Log10(), wantLog)
	}
	// Monotone in all arguments.
	base := Theorem43MaxN(3, 2, 2).Log10()
	if Theorem43MaxN(4, 2, 2).Log10() <= base ||
		Theorem43MaxN(3, 3, 2).Log10() <= base ||
		Theorem43MaxN(3, 2, 3).Log10() <= base {
		t.Error("Theorem43MaxN not monotone")
	}
}

func TestMinStatesTheorem43(t *testing.T) {
	// Round-trip: for n exactly at the Theorem 4.3 bound for d states
	// (width = leaders = m, so the bases agree), the minimal admissible
	// state count is exactly d, since d ↦ d^((d+2)²) is strictly
	// increasing.
	for d := 1; d <= 8; d++ {
		m := Theorem43MaxN(d, 2, 2)
		got := MinStatesTheorem43(m.Log10(), 2)
		if got != d {
			t.Errorf("d=%d: MinStates(bound) = %d, want %d", d, got, d)
		}
	}
	if MinStatesTheorem43(0, 2) != 1 {
		t.Error("trivial n should need 1 state")
	}
	// Monotone in n.
	if MinStatesTheorem43(1e6, 2) > MinStatesTheorem43(1e60, 2) {
		t.Error("MinStates not monotone in n")
	}
}

func TestCorollary44LowerBound(t *testing.T) {
	// Grows with n.
	small := Corollary44LowerBound(1<<10, 0.49, 2)
	large := Corollary44LowerBound(math.Pow(2, 40), 0.49, 2)
	if large <= small {
		t.Errorf("lower bound not growing: %v vs %v", small, large)
	}
	// Vacuous for tiny n.
	if Corollary44LowerBound(1, 0.49, 2) != 0 {
		t.Error("tiny n should be vacuous")
	}
	// h < 1/2 beats h' > h asymptotically in the right direction:
	// larger h gives a larger bound for the same n.
	if Corollary44LowerBound(math.Pow(2, 40), 0.3, 2) >= Corollary44LowerBound(math.Pow(2, 40), 0.49, 2) {
		t.Error("exponent ordering violated")
	}
}

func TestBEJUpperBoundStates(t *testing.T) {
	if got := BEJUpperBoundStates(3, 4, 10); got != 22 {
		t.Errorf("BEJUpperBoundStates = %d, want 22", got)
	}
}

func TestPowMagBase(t *testing.T) {
	pmb := PowMagBase(big.NewInt(3), 4)
	if pmb.Cmp(big.NewInt(81)) != 0 {
		t.Errorf("PowMagBase = %v, want 81", pmb)
	}
}

func TestBigLog10LargeInt(t *testing.T) {
	// 2^2000 exceeds float64 range; bigLog10 must still be accurate.
	n := new(big.Int).Exp(big.NewInt(2), big.NewInt(2000), nil)
	got := bigLog10(n)
	want := 2000 * math.Log10(2)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("bigLog10(2^2000) = %v, want %v", got, want)
	}
}

// refShortBig is the slicing-based reference shortBig replaced by the
// division-based fast path: the two must render identically.
func refShortBig(n *big.Int) string {
	s := n.String()
	if len(s) <= 24 {
		return s
	}
	return s[:10] + "..." + s[len(s)-6:] + fmt.Sprintf(" (%d digits)", len(s))
}

func TestShortBigMatchesReference(t *testing.T) {
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(123456789),
		new(big.Int).Exp(big.NewInt(10), big.NewInt(24), nil), // 25 digits
		new(big.Int).Exp(big.NewInt(10), big.NewInt(38), nil),
		new(big.Int).Exp(big.NewInt(10), big.NewInt(39), nil),
		new(big.Int).Sub(new(big.Int).Exp(big.NewInt(10), big.NewInt(60), nil), big.NewInt(1)),
		new(big.Int).Exp(big.NewInt(10), big.NewInt(1000), nil),  // power of ten: log10 edge
		new(big.Int).Exp(big.NewInt(12), big.NewInt(65536), nil), // the E2 d=2 bound
		new(big.Int).Exp(big.NewInt(7), big.NewInt(12345), nil),
	}
	for _, n := range cases {
		if got, want := shortBig(n), refShortBig(n); got != want {
			t.Errorf("shortBig(%s digits=%d):\n got  %s\n want %s",
				n.String()[:10], len(n.String()), got, want)
		}
	}
	// Randomized cross-check across the digit-count boundary region.
	rnd := big.NewInt(0xDEADBEEF)
	x := big.NewInt(3)
	for i := 0; i < 200; i++ {
		x = new(big.Int).Mul(x, big.NewInt(999999937))
		x.Add(x, rnd)
		if got, want := shortBig(x), refShortBig(x); got != want {
			t.Fatalf("random case %d: got %s want %s", i, got, want)
		}
	}
}
