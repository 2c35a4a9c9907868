package petri

import (
	"errors"

	"repro/internal/conf"
)

// Coverable decides whether target is T-coverable from the given
// configuration: whether some β ≥ target is reachable. It runs the
// classical backward algorithm over minimal bases of upward-closed sets,
// which terminates by Dickson's lemma; maxBasis (0 = default) caps the
// basis size defensively. The basis is a sum-bucketed antichain with
// all predecessor steps fired into a scratch buffer: no configuration
// is allocated on the search path.
func (n *Net) Coverable(from, target conf.Config, maxBasis int) (bool, error) {
	if !from.Space().Equal(n.space) || !target.Space().Equal(n.space) {
		return false, errors.New("petri: coverability arguments over wrong space")
	}
	if maxBasis <= 0 {
		maxBasis = DefaultMaxConfigs
	}
	d := n.space.Len()
	idx := n.Index()
	fromCounts := from.RawCounts()
	fromSum := sumCounts(fromCounts)

	// basis is a minimal antichain whose upward closure is the set of
	// configurations from which target is coverable.
	basis := newAntichain(d)
	basis.insertMinimal(target.RawCounts())
	frontier := append([]int64(nil), target.RawCounts()...)
	var next []int64
	scratch := make([]int64, d)

	for len(frontier) > 0 {
		if basis.someLeq(fromCounts, fromSum) {
			return true, nil
		}
		next = next[:0]
		for off := 0; off < len(frontier); off += d {
			m := frontier[off : off+d]
			for ti := 0; ti < len(n.trans); ti++ {
				idx.BackFireInto(ti, m, scratch)
				if basis.insertMinimal(scratch) {
					next = append(next, scratch...)
				}
			}
		}
		if basis.len() > maxBasis {
			return false, errBudget("coverable", basis.len())
		}
		frontier, next = next, frontier
	}
	return basis.someLeq(fromCounts, fromSum), nil
}

// CoverWitness is the result of a shortest covering-word search.
type CoverWitness struct {
	// Word is a shortest firing word σ with from —σ→ β ≥ target.
	Word []int
	// Reached is the covering configuration β.
	Reached conf.Config
}

// ShortestCoveringWord searches breadth-first for a shortest word
// covering target from the given configuration. Configurations dominated
// by an already-visited one are pruned, which is sound for coverability
// because enabledness and coverage are upward monotone; the visited
// maximal set is a sum-bucketed antichain, and the BFS nodes live in a
// flat arena. It returns nil (no error) when target is provably not
// coverable within the budget semantics, and a wrapped ErrBudget when
// the search was truncated.
//
// The measured |Word| is the quantity Lemma 5.3 (Rackoff) bounds by
// (‖target‖∞ + ‖T‖∞)^(|P|^|P|).
func (n *Net) ShortestCoveringWord(from, target conf.Config, budget Budget) (*CoverWitness, error) {
	if !from.Space().Equal(n.space) || !target.Space().Equal(n.space) {
		return nil, errors.New("petri: coverability arguments over wrong space")
	}
	if target.Leq(from) {
		return &CoverWitness{Word: nil, Reached: from}, nil
	}
	d := n.space.Len()
	idx := n.Index()
	targetCounts := target.RawCounts()

	// nodes live flat: counts in buf, tree links alongside.
	buf := append([]int64(nil), from.RawCounts()...)
	parent := []int32{-1}
	via := []int32{-1}
	numNodes := 1
	// maximal is the antichain of visited configurations used for
	// domination pruning.
	maximal := newAntichain(d)
	maximal.insertMaximal(from.RawCounts())
	maxConfigs := budget.maxConfigs()
	scratch := make([]int64, d)

	extract := func(i int) []int {
		var rev []int
		for cur := i; parent[cur] >= 0; cur = int(parent[cur]) {
			rev = append(rev, int(via[cur]))
		}
		for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
			rev[a], rev[b] = rev[b], rev[a]
		}
		return rev
	}

	for head := 0; head < numNodes; head++ {
		cur := buf[head*d : (head+1)*d]
		for ti := 0; ti < len(n.trans); ti++ {
			if !idx.FireInto(ti, cur, scratch) {
				continue
			}
			sum := sumCounts(scratch)
			if maximal.someGeq(scratch, sum) {
				continue
			}
			buf = append(buf, scratch...)
			parent = append(parent, int32(head))
			via = append(via, int32(ti))
			numNodes++
			if leqCounts(targetCounts, scratch) {
				reached, err := conf.FromSlice(n.space, scratch)
				if err != nil {
					// Unreachable: fired counts are non-negative.
					panic(err)
				}
				return &CoverWitness{Word: extract(numNodes - 1), Reached: reached}, nil
			}
			maximal.insertMaximal(scratch)
			if numNodes >= maxConfigs {
				return nil, errBudget("cover-search", numNodes)
			}
		}
	}
	return nil, nil
}
