// Package hilbert computes minimal non-negative integer solutions
// (Hilbert bases) of homogeneous linear Diophantine systems A·x = 0,
// using the Contejean–Devie completion procedure, together with the
// decomposition of arbitrary solutions into sums of minimal ones.
//
// This is the machinery behind Lemma 7.3 of Leroux (PODC 2022), which
// invokes Pottier's theorem [12]: every minimal solution of the system
// (1) built from simple-cycle displacements has 1-norm at most
// (2 + Σ_a ‖a‖∞)^d, and every solution decomposes as an ℕ-combination
// of minimal ones.
package hilbert

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// System is an m×k homogeneous linear Diophantine system A·x = 0 over
// the unknowns x ∈ ℕ^k.
type System struct {
	rows, cols int
	a          [][]int64 // row-major
}

// NewSystem builds a system from row-major coefficients. All rows must
// have equal length ≥ 1.
func NewSystem(rows [][]int64) (*System, error) {
	if len(rows) == 0 {
		return nil, errors.New("hilbert: no equations")
	}
	cols := len(rows[0])
	if cols == 0 {
		return nil, errors.New("hilbert: no unknowns")
	}
	a := make([][]int64, len(rows))
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("hilbert: row %d has %d columns, want %d", i, len(r), cols)
		}
		a[i] = make([]int64, cols)
		copy(a[i], r)
	}
	return &System{rows: len(rows), cols: cols, a: a}, nil
}

// Rows returns the number of equations.
func (s *System) Rows() int { return s.rows }

// Eval returns A·x.
func (s *System) Eval(x []int64) ([]int64, error) {
	if len(x) != s.cols {
		return nil, fmt.Errorf("hilbert: vector length %d, want %d", len(x), s.cols)
	}
	out := make([]int64, s.rows)
	for i, row := range s.a {
		var acc int64
		for j, c := range row {
			acc += c * x[j]
		}
		out[i] = acc
	}
	return out, nil
}

// IsSolution reports whether A·x = 0.
func (s *System) IsSolution(x []int64) bool {
	v, err := s.Eval(x)
	if err != nil {
		return false
	}
	for _, n := range v {
		if n != 0 {
			return false
		}
	}
	return true
}

// SumColumnNormInf returns Σ_j ‖A_{·j}‖∞, the quantity the Pottier bound
// (2 + Σ)^rows is stated with in the paper's Lemma 7.3 usage.
func (s *System) SumColumnNormInf() int64 {
	var sum int64
	for j := 0; j < s.cols; j++ {
		var m int64
		for i := 0; i < s.rows; i++ {
			v := s.a[i][j]
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		sum += m
	}
	return sum
}

// The completion procedure is capped defensively: it terminates on its
// own (Contejean–Devie), but adversarial systems can have huge bases.
const (
	maxFrontier = 1 << 20 // in-flight candidate vectors
	maxBasis    = 1 << 16 // basis size
)

// ErrBudget is reported when the completion exceeds its caps.
var ErrBudget = errors.New("hilbert: completion budget exhausted")

// MinimalSolutions returns the Hilbert basis of A·x = 0: all minimal
// (componentwise) non-zero solutions. The result is deterministic for a
// given system.
//
// Algorithm (Contejean–Devie 1994): breadth-first completion from the
// unit vectors, growing a candidate t by e_j only when the defect A·t
// and the column A·e_j point in opposite half-spaces
// (⟨A·t, A·e_j⟩ < 0), pruning candidates dominated by found solutions.
// It fails with ErrBudget past 2^20 candidates in flight or 2^16 basis
// vectors.
func (s *System) MinimalSolutions() ([][]int64, error) {
	return s.minimalSolutions(maxFrontier, maxBasis)
}

// minimalSolutions is MinimalSolutions under the given caps.
func (s *System) minimalSolutions(frontierCap, basisCap int) ([][]int64, error) {
	type cand struct {
		x []int64
		v []int64 // A·x, maintained incrementally
	}
	var basis [][]int64

	dominatedByBasis := func(x []int64) bool {
		for _, b := range basis {
			if leq(b, x) {
				return true
			}
		}
		return false
	}

	// Column vectors A·e_j.
	colVec := make([][]int64, s.cols)
	for j := 0; j < s.cols; j++ {
		v := make([]int64, s.rows)
		for i := 0; i < s.rows; i++ {
			v[i] = s.a[i][j]
		}
		colVec[j] = v
	}

	frontier := make([]cand, 0, s.cols)
	seen := make(map[string]bool)
	for j := 0; j < s.cols; j++ {
		x := make([]int64, s.cols)
		x[j] = 1
		c := cand{x: x, v: append([]int64(nil), colVec[j]...)}
		frontier = append(frontier, c)
		seen[key(x)] = true
	}

	for len(frontier) > 0 {
		var next []cand
		for _, c := range frontier {
			if isZero(c.v) {
				if !dominatedByBasis(c.x) {
					basis = append(basis, c.x)
					if len(basis) > basisCap {
						return nil, fmt.Errorf("minimal solutions: %w", ErrBudget)
					}
				}
				continue
			}
			if dominatedByBasis(c.x) {
				continue
			}
			for j := 0; j < s.cols; j++ {
				if dot(c.v, colVec[j]) >= 0 {
					continue
				}
				nx := append([]int64(nil), c.x...)
				nx[j]++
				k := key(nx)
				if seen[k] {
					continue
				}
				seen[k] = true
				if dominatedByBasis(nx) {
					continue
				}
				nv := append([]int64(nil), c.v...)
				for i := 0; i < s.rows; i++ {
					nv[i] += colVec[j][i]
				}
				next = append(next, cand{x: nx, v: nv})
			}
			if len(next) > frontierCap {
				return nil, fmt.Errorf("minimal solutions: %w", ErrBudget)
			}
		}
		frontier = next
	}

	// The breadth-first discipline can admit a solution that a later,
	// smaller solution dominates; filter to the true minimal set.
	return minimalOnly(basis), nil
}

// minimalOnly removes vectors dominated by another basis element.
func minimalOnly(basis [][]int64) [][]int64 {
	out := make([][]int64, 0, len(basis))
	for i, x := range basis {
		minimal := true
		for j, y := range basis {
			if i == j {
				continue
			}
			if leq(y, x) && !eq(y, x) {
				minimal = false
				break
			}
			// Exact duplicates: keep the first.
			if eq(y, x) && j < i {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, x)
		}
	}
	return out
}

// Decompose writes x as an ℕ-combination of basis vectors, returning
// the multiplicity of each basis element. It requires x to be a
// solution and the basis to be complete (every non-zero solution
// dominates a basis element), which MinimalSolutions guarantees.
func (s *System) Decompose(x []int64, basis [][]int64) ([]int64, error) {
	if !s.IsSolution(x) {
		return nil, errors.New("hilbert: decompose: not a solution")
	}
	coeff := make([]int64, len(basis))
	rest := append([]int64(nil), x...)
	for !isZero(rest) {
		progress := false
		for bi, b := range basis {
			if leq(b, rest) {
				for j := range rest {
					rest[j] -= b[j]
				}
				coeff[bi]++
				progress = true
				break
			}
		}
		if !progress {
			return nil, fmt.Errorf("hilbert: decompose: residual %v dominates no basis element", rest)
		}
	}
	return coeff, nil
}

// MaxNorm1 returns max ‖b‖₁ over the basis: the measured quantity the
// Pottier bound caps.
func MaxNorm1(basis [][]int64) int64 {
	var m int64
	for _, b := range basis {
		var n int64
		for _, v := range b {
			n += v
		}
		if n > m {
			m = n
		}
	}
	return m
}

func leq(a, b []int64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

func eq(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func isZero(v []int64) bool {
	for _, n := range v {
		if n != 0 {
			return false
		}
	}
	return true
}

func dot(a, b []int64) int64 {
	var acc int64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

func key(x []int64) string {
	buf := make([]byte, 0, len(x)*2)
	var tmp [binary.MaxVarintLen64]byte
	for _, n := range x {
		k := binary.PutUvarint(tmp[:], uint64(n))
		buf = append(buf, tmp[:k]...)
	}
	return string(buf)
}
