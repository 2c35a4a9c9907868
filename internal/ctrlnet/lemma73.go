package ctrlnet

import (
	"errors"
	"fmt"

	"repro/internal/hilbert"
)

// Lemma73Result is the replacement multicycle Θ' produced by Lemma 7.3,
// as a list of simple cycles with multiplicities.
type Lemma73Result struct {
	// Cycles are the distinct simple cycles of Θ' (edge-index paths).
	Cycles [][]int
	// Mult[i] is the multiplicity of Cycles[i] in Θ'.
	Mult []int64
	// Parikh is #Θ' over edges.
	Parikh []int64
	// Delta is Δ(Θ') over the Petri net's states.
	Delta []int64
	// Length is |Θ'| = Σ multiplicities × cycle lengths.
	Length int64
}

// Lemma73 constructs, from a multicycle Θ (a list of cycles), a
// replacement multicycle Θ' such that, writing Δ = Δ(Θ):
//
//   - Δ(Θ')(p) ≤ 0 wherever Δ(p) ≤ 0, and Δ(Θ')(p) < 0 wherever
//     Δ(p) ≤ −k;
//   - Δ(Θ')(p) ≥ 0 wherever Δ(p) ≥ 0, and Δ(Θ')(p) > 0 wherever
//     Δ(p) ≥ k;
//   - Δ(Θ')(q) = 0 for every Petri-net state q ∈ Q (zeroMask);
//   - #Θ'(e) > 0 for every edge e with #Θ(e) ≥ k.
//
// The construction follows the paper's proof: decompose Θ into simple
// cycles, set up the linear system (1) over variables (α, β) with β
// indexed by the distinct simple cycles, obtain a Pottier decomposition
// of the canonical solution (|Δ|, multiplicities) into minimal
// solutions, keep those vanishing on Q (the set H₀), and sum one H₀
// element per constraint that must be hit. It fails with an explicit
// error when k is too small for H₀ to cover the constraints — the
// paper's choice k > ‖Δ(Θ)|Q‖₁(1+2|S|‖T‖∞)^(d(d+1)) always suffices.
func (n *Net) Lemma73(theta [][]int, zeroMask []bool, k int64) (*Lemma73Result, error) {
	d := n.pnet.Space().Len()
	if len(zeroMask) != d {
		return nil, errors.New("ctrlnet: zero-mask length mismatch")
	}
	if k <= 0 {
		return nil, errors.New("ctrlnet: k must be positive")
	}
	if len(theta) == 0 {
		return nil, errors.New("ctrlnet: empty multicycle")
	}

	// 1. Decompose Θ into simple cycles; collect distinct ones (by
	// Parikh key) with multiplicities.
	type simpleInfo struct {
		cycle []int
		mult  int64
		delta []int64
	}
	var simples []simpleInfo
	index := make(map[string]int)
	keyOf := func(c []int) string {
		p := n.Parikh(c)
		buf := make([]byte, 0, len(p))
		for _, v := range p {
			buf = append(buf, byte(v), byte(v>>8))
		}
		return string(buf)
	}
	for ci, cyc := range theta {
		if !n.IsCycle(cyc) {
			return nil, fmt.Errorf("ctrlnet: element %d of Θ is not a cycle", ci)
		}
		parts, err := n.DecomposeSimple(cyc)
		if err != nil {
			return nil, err
		}
		for _, s := range parts {
			ck := keyOf(s)
			if i, ok := index[ck]; ok {
				simples[i].mult++
				continue
			}
			index[ck] = len(simples)
			simples = append(simples, simpleInfo{cycle: s, mult: 1, delta: n.Displacement(s)})
		}
	}

	// 2. Sign vector s(p) and magnitude f(p) = |Δ(Θ)(p)|.
	deltaTheta := make([]int64, d)
	for _, s := range simples {
		for p, v := range s.delta {
			deltaTheta[p] += s.mult * v
		}
	}
	sign := make([]int64, d)
	f := make([]int64, d)
	for p, v := range deltaTheta {
		if v >= 0 {
			sign[p] = 1
			f[p] = v
		} else {
			sign[p] = -1
			f[p] = -v
		}
	}
	// Hypothesis check: the lemma's k exceeds ‖Δ(Θ)|Q‖₁ (times a
	// positive factor), so no state of Q can be heavy. Reject
	// inconsistent inputs up front with a diagnostic instead of failing
	// deep inside the H₀ search.
	for p := 0; p < d; p++ {
		if zeroMask[p] && f[p] >= k {
			return nil, fmt.Errorf(
				"ctrlnet: lemma 7.3 hypothesis violated: |Δ(Θ)(%s)| = %d ≥ k = %d for a state of Q",
				n.pnet.Space().Name(p), f[p], k)
		}
	}

	// 3. Linear system (1): for each state p,
	//    s(p)·α(p) − Σ_c β(c)·Δ(c)(p) = 0
	// over unknowns x = (α, β) ∈ ℕ^d × ℕ^|simples|.
	cols := d + len(simples)
	rows := make([][]int64, d)
	for p := 0; p < d; p++ {
		row := make([]int64, cols)
		row[p] = sign[p]
		for ci, s := range simples {
			row[d+ci] = -s.delta[p]
		}
		rows[p] = row
	}
	sys, err := hilbert.NewSystem(rows)
	if err != nil {
		return nil, err
	}
	basis, err := sys.MinimalSolutions()
	if err != nil {
		return nil, fmt.Errorf("lemma 7.3: %w", err)
	}

	// 4. Decompose the canonical solution (f, g).
	canon := make([]int64, cols)
	copy(canon, f)
	for ci, s := range simples {
		canon[d+ci] = s.mult
	}
	coeff, err := sys.Decompose(canon, basis)
	if err != nil {
		return nil, fmt.Errorf("lemma 7.3: %w", err)
	}

	// 5. H₀: basis elements used by the decomposition that vanish on Q
	// in their α part. (Restricting to used elements keeps the
	// correspondence with the paper's multiset H.)
	var h0 []int
	for bi, c := range coeff {
		if c == 0 {
			continue
		}
		ok := true
		for p := 0; p < d; p++ {
			if zeroMask[p] && basis[bi][p] != 0 {
				ok = false
				break
			}
		}
		if ok {
			h0 = append(h0, bi)
		}
	}

	// 6. Pick one H₀ element per constraint.
	chosen := make(map[int]int64) // basis index -> multiplicity in Θ'
	pick := func(pred func(x []int64) bool, what string) error {
		for _, bi := range h0 {
			if pred(basis[bi]) {
				chosen[bi]++
				return nil
			}
		}
		return fmt.Errorf("ctrlnet: lemma 7.3: no H₀ element covers %s (k too small)", what)
	}
	// Heavy edges: #Θ(e) ≥ k must stay present. An H₀ element covers
	// edge e when some simple cycle containing e has positive β.
	parikhTheta := make([]int64, len(n.edges))
	for _, s := range simples {
		p := n.Parikh(s.cycle)
		for e, c := range p {
			parikhTheta[e] += s.mult * c
		}
	}
	for e, c := range parikhTheta {
		if c < k {
			continue
		}
		e := e
		if err := pick(func(x []int64) bool {
			for ci, s := range simples {
				if x[d+ci] > 0 && n.Parikh(s.cycle)[e] > 0 {
					return true
				}
			}
			return false
		}, fmt.Sprintf("edge %d", e)); err != nil {
			return nil, err
		}
	}
	// Heavy states: |Δ(Θ)(p)| ≥ k must keep a strict sign. States of Q
	// cannot be heavy (checked above).
	for p := 0; p < d; p++ {
		if f[p] < k || zeroMask[p] {
			continue
		}
		p := p
		if err := pick(func(x []int64) bool { return x[p] > 0 },
			fmt.Sprintf("state %q", n.pnet.Space().Name(p))); err != nil {
			return nil, err
		}
	}
	if len(chosen) == 0 {
		return nil, errors.New("ctrlnet: lemma 7.3: no constraints to satisfy (all counts below k)")
	}

	// 7. Assemble Θ' = Σ chosen elements.
	res := &Lemma73Result{Parikh: make([]int64, len(n.edges)), Delta: make([]int64, d)}
	betaSum := make([]int64, len(simples))
	for bi, mult := range chosen {
		x := basis[bi]
		for p := 0; p < d; p++ {
			res.Delta[p] += mult * sign[p] * x[p]
		}
		for ci := range simples {
			betaSum[ci] += mult * x[d+ci]
		}
	}
	for ci, c := range betaSum {
		if c == 0 {
			continue
		}
		res.Cycles = append(res.Cycles, simples[ci].cycle)
		res.Mult = append(res.Mult, c)
		res.Length += c * int64(len(simples[ci].cycle))
		p := n.Parikh(simples[ci].cycle)
		for e, pc := range p {
			res.Parikh[e] += c * pc
		}
	}
	return res, nil
}
