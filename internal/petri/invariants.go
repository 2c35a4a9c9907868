package petri

import (
	"fmt"

	"repro/internal/hilbert"
)

// PInvariants returns a generating set of the non-negative P-invariants
// (place semiflows) of the net: vectors y ∈ ℕ^P with y·Δ(t) = 0 for
// every transition. A P-invariant certifies that the weighted agent
// count Σ_p y(p)·ρ(p) is preserved by every execution — the algebraic
// face of the paper's "conservative" protocols (a net is conservative
// exactly when the all-ones vector is an invariant).
//
// The computation solves the homogeneous system C^T·y = 0 over ℕ with
// the Contejean–Devie procedure; the result is the minimal (Hilbert)
// generating set.
func (n *Net) PInvariants() ([][]int64, error) {
	if n.Len() == 0 {
		return nil, fmt.Errorf("petri: no transitions to constrain invariants")
	}
	rows := make([][]int64, n.Len())
	for ti, t := range n.trans {
		rows[ti] = t.Delta()
	}
	sys, err := hilbert.NewSystem(rows)
	if err != nil {
		return nil, err
	}
	return sys.MinimalSolutions()
}

// HasUniformInvariant reports whether the all-ones vector is a
// P-invariant, i.e. whether the net is conservative. It cross-checks
// the syntactic Conservative() answer algebraically.
func (n *Net) HasUniformInvariant() bool {
	for _, t := range n.trans {
		var sum int64
		for _, d := range t.Delta() {
			sum += d
		}
		if sum != 0 {
			return false
		}
	}
	return true
}

// InvariantValue returns Σ_p y(p)·c(p) for an invariant candidate y.
func InvariantValue(y []int64, c interface{ Get(int) int64 }) int64 {
	var acc int64
	for i, w := range y {
		acc += w * c.Get(i)
	}
	return acc
}
