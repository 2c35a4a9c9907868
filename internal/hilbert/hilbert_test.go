package hilbert

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
)

func mustSystem(t *testing.T, rows [][]int64) *System {
	t.Helper()
	s, err := NewSystem(rows)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewSystem([][]int64{{}}); err == nil {
		t.Error("zero-column system accepted")
	}
	if _, err := NewSystem([][]int64{{1, 2}, {1}}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestEvalAndIsSolution(t *testing.T) {
	s := mustSystem(t, [][]int64{{1, -1}})
	v, err := s.Eval([]int64{3, 3})
	if err != nil || v[0] != 0 {
		t.Fatalf("Eval = %v, %v", v, err)
	}
	if !s.IsSolution([]int64{2, 2}) {
		t.Error("x=y not a solution")
	}
	if s.IsSolution([]int64{2, 1}) {
		t.Error("x≠y accepted")
	}
	if _, err := s.Eval([]int64{1}); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestMinimalSolutionsSimpleEquality(t *testing.T) {
	// x = y: Hilbert basis is {(1,1)}.
	s := mustSystem(t, [][]int64{{1, -1}})
	basis, err := s.MinimalSolutions()
	if err != nil {
		t.Fatalf("MinimalSolutions: %v", err)
	}
	if len(basis) != 1 || basis[0][0] != 1 || basis[0][1] != 1 {
		t.Fatalf("basis = %v, want [(1,1)]", basis)
	}
}

func TestMinimalSolutionsWeighted(t *testing.T) {
	// 2x = 3y: minimal solution (3,2).
	s := mustSystem(t, [][]int64{{2, -3}})
	basis, err := s.MinimalSolutions()
	if err != nil {
		t.Fatalf("MinimalSolutions: %v", err)
	}
	if len(basis) != 1 || basis[0][0] != 3 || basis[0][1] != 2 {
		t.Fatalf("basis = %v, want [(3,2)]", basis)
	}
}

func TestMinimalSolutionsThreeVars(t *testing.T) {
	// x + y = 2z: minimal solutions (2,0,1), (0,2,1), (1,1,1).
	s := mustSystem(t, [][]int64{{1, 1, -2}})
	basis, err := s.MinimalSolutions()
	if err != nil {
		t.Fatalf("MinimalSolutions: %v", err)
	}
	if len(basis) != 3 {
		t.Fatalf("basis = %v, want 3 elements", basis)
	}
	want := map[[3]int64]bool{{2, 0, 1}: true, {0, 2, 1}: true, {1, 1, 1}: true}
	for _, b := range basis {
		if !want[[3]int64{b[0], b[1], b[2]}] {
			t.Errorf("unexpected basis element %v", b)
		}
	}
}

func TestMinimalSolutionsNoSolution(t *testing.T) {
	// x + y = 0 over ℕ forces x=y=0: empty basis.
	s := mustSystem(t, [][]int64{{1, 1}})
	basis, err := s.MinimalSolutions()
	if err != nil {
		t.Fatalf("MinimalSolutions: %v", err)
	}
	if len(basis) != 0 {
		t.Fatalf("basis = %v, want empty", basis)
	}
}

func TestMinimalSolutionsTwoEquations(t *testing.T) {
	// x = y and y = z: basis {(1,1,1)}.
	s := mustSystem(t, [][]int64{{1, -1, 0}, {0, 1, -1}})
	basis, err := s.MinimalSolutions()
	if err != nil {
		t.Fatalf("MinimalSolutions: %v", err)
	}
	if len(basis) != 1 || basis[0][0] != 1 || basis[0][1] != 1 || basis[0][2] != 1 {
		t.Fatalf("basis = %v, want [(1,1,1)]", basis)
	}
}

// Every basis element solves the system; no basis element dominates
// another; all obey the Pottier bound — on random systems.
func TestMinimalSolutionsRandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(2)
		cols := 2 + rng.Intn(3)
		a := make([][]int64, rows)
		for i := range a {
			a[i] = make([]int64, cols)
			for j := range a[i] {
				a[i][j] = int64(rng.Intn(7)) - 3
			}
		}
		s := mustSystem(t, a)
		basis, err := s.MinimalSolutions()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, b := range basis {
			if !s.IsSolution(b) {
				t.Fatalf("trial %d: basis element %v not a solution of %v", trial, b, a)
			}
			if isZero(b) {
				t.Fatalf("trial %d: zero vector in basis", trial)
			}
		}
		for i := range basis {
			for j := range basis {
				if i != j && leq(basis[i], basis[j]) {
					t.Fatalf("trial %d: %v ≤ %v in basis", trial, basis[i], basis[j])
				}
			}
		}
		// Pottier bound (as used in the paper, with d = #rows):
		// ‖x‖₁ ≤ (2 + Σ_j ‖col_j‖∞)^d.
		bound := bounds.Pottier(rows, s.SumColumnNormInf())
		if got := MaxNorm1(basis); !bound.GeqInt(got) {
			t.Fatalf("trial %d: max ‖·‖₁ = %d exceeds Pottier bound %v", trial, got, bound)
		}
	}
}

// Completeness cross-check: brute-force minimal solutions within a box
// and compare with the computed basis.
func TestMinimalSolutionsBruteForce(t *testing.T) {
	systems := [][][]int64{
		{{1, -1}},
		{{2, -3}},
		{{1, 1, -2}},
		{{1, -1, 0}, {0, 1, -1}},
		{{2, -1, -1}},
		{{1, 2, -2, -1}},
	}
	const box = 6
	for si, rows := range systems {
		s := mustSystem(t, rows)
		basis, err := s.MinimalSolutions()
		if err != nil {
			t.Fatalf("system %d: %v", si, err)
		}
		// Enumerate all solutions in [0,box]^cols and find minimal ones.
		var all [][]int64
		var rec func(prefix []int64)
		rec = func(prefix []int64) {
			if len(prefix) == s.cols {
				x := append([]int64(nil), prefix...)
				if !isZero(x) && s.IsSolution(x) {
					all = append(all, x)
				}
				return
			}
			for v := int64(0); v <= box; v++ {
				rec(append(prefix, v))
			}
		}
		rec(nil)
		var minimal [][]int64
		for i, x := range all {
			dominated := false
			for j, y := range all {
				if i != j && leq(y, x) && !eq(y, x) {
					dominated = true
					break
				}
			}
			if !dominated {
				minimal = append(minimal, x)
			}
		}
		// Every brute-force minimal solution within the box must be in
		// the computed basis (provided it fits: check norm).
		inBasis := func(x []int64) bool {
			for _, b := range basis {
				if eq(b, x) {
					return true
				}
			}
			return false
		}
		for _, m := range minimal {
			if !inBasis(m) {
				t.Errorf("system %d: minimal solution %v missing from basis %v", si, m, basis)
			}
		}
	}
}

func TestDecompose(t *testing.T) {
	s := mustSystem(t, [][]int64{{1, 1, -2}})
	basis, err := s.MinimalSolutions()
	if err != nil {
		t.Fatalf("MinimalSolutions: %v", err)
	}
	// (3,1,2) = (2,0,1) + (1,1,1).
	x := []int64{3, 1, 2}
	coeff, err := s.Decompose(x, basis)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	recomposed := make([]int64, len(x))
	for bi, c := range coeff {
		for j := range recomposed {
			recomposed[j] += c * basis[bi][j]
		}
	}
	if !eq(recomposed, x) {
		t.Errorf("recomposition = %v, want %v", recomposed, x)
	}

	if _, err := s.Decompose([]int64{1, 0, 0}, basis); err == nil {
		t.Error("non-solution decomposed")
	}
}

func TestDecomposeRandom(t *testing.T) {
	s := mustSystem(t, [][]int64{{2, -1, -1}})
	basis, err := s.MinimalSolutions()
	if err != nil {
		t.Fatalf("MinimalSolutions: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		// Random ℕ-combination of basis elements is a solution; it must
		// decompose back to something summing to it.
		x := make([]int64, s.cols)
		for _, b := range basis {
			c := int64(rng.Intn(4))
			for j := range x {
				x[j] += c * b[j]
			}
		}
		coeff, err := s.Decompose(x, basis)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		re := make([]int64, len(x))
		for bi, c := range coeff {
			for j := range re {
				re[j] += c * basis[bi][j]
			}
		}
		if !eq(re, x) {
			t.Fatalf("trial %d: decomposition does not re-sum: %v vs %v", trial, re, x)
		}
	}
}

func TestBudget(t *testing.T) {
	s := mustSystem(t, [][]int64{{5, -7, 3, -2}})
	if _, err := s.minimalSolutions(2, maxBasis); err == nil {
		t.Error("tiny frontier budget not reported")
	}
}

func TestMaxNorm1(t *testing.T) {
	if got := MaxNorm1([][]int64{{1, 2}, {3, 1}}); got != 4 {
		t.Errorf("MaxNorm1 = %d, want 4", got)
	}
	if got := MaxNorm1(nil); got != 0 {
		t.Errorf("MaxNorm1(nil) = %d, want 0", got)
	}
}
