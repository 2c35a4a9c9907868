package petri

// SparseEntry is one (state, count) component of a sparse configuration
// view.
type SparseEntry struct {
	// State is the state's index in the net's space.
	State int
	// N is the count carried on that state (a displacement entry may be
	// negative).
	N int64
}

// Index is the precomputed dependency structure of a net used by
// incremental simulation engines: sparse views of every transition's
// precondition and displacement, plus, per transition, the transitions
// whose enabledness/weight can change when it fires. Nets are
// immutable, so the index is computed once and shared.
type Index struct {
	pre      [][]SparseEntry // per transition: support of Pre
	delta    [][]SparseEntry // per transition: nonzero Post−Pre entries
	affected [][]int         // per transition: deduped dependents of its delta support
}

// buildIndex computes the index for a net.
func buildIndex(n *Net) *Index {
	d := n.space.Len()
	idx := &Index{
		pre:   make([][]SparseEntry, len(n.trans)),
		delta: make([][]SparseEntry, len(n.trans)),
	}
	dependents := make([][]int, d) // per state: transitions with Pre on it
	for ti, t := range n.trans {
		for i := 0; i < d; i++ {
			if need := t.Pre.Get(i); need > 0 {
				idx.pre[ti] = append(idx.pre[ti], SparseEntry{State: i, N: need})
				dependents[i] = append(dependents[i], ti)
			}
			if dv := t.Post.Get(i) - t.Pre.Get(i); dv != 0 {
				idx.delta[ti] = append(idx.delta[ti], SparseEntry{State: i, N: dv})
			}
		}
	}
	idx.affected = make([][]int, len(n.trans))
	mark := make([]bool, len(n.trans))
	for ti := range n.trans {
		for _, e := range idx.delta[ti] {
			for _, dt := range dependents[e.State] {
				if !mark[dt] {
					mark[dt] = true
					idx.affected[ti] = append(idx.affected[ti], dt)
				}
			}
		}
		for _, dt := range idx.affected[ti] {
			mark[dt] = false
		}
	}
	return idx
}

// Pre returns the sparse support of transition ti's precondition. The
// returned slice is shared and must not be mutated.
func (x *Index) Pre(ti int) []SparseEntry { return x.pre[ti] }

// Delta returns the sparse nonzero displacement of transition ti. The
// returned slice is shared and must not be mutated.
func (x *Index) Delta(ti int) []SparseEntry { return x.delta[ti] }

// AggregateDelta accumulates the displacement of firing each
// transition ti fires[ti] times into the dense per-state vector disp
// (indexed like the net's space): disp += Σ_ti fires[ti]·Delta(ti).
// Batch simulation engines use it to apply many interactions as one
// configuration update. len(fires) must cover every transition with a
// nonzero count; disp is not cleared first.
func (x *Index) AggregateDelta(fires []int64, disp []int64) {
	for ti, k := range fires {
		if k == 0 {
			continue
		}
		for _, e := range x.delta[ti] {
			disp[e.State] += k * e.N
		}
	}
}

// FireInto attempts to fire transition ti from the src counts into the
// dst scratch buffer (both dense, indexed like the net's space),
// reporting whether ti was enabled. On success dst holds src + Δ(ti);
// on failure dst is unspecified. It is the zero-allocation form of
// Transition.Fire used by the closure engines: the sparse precondition
// check touches only Pre's support and the displacement only Δ's.
func (x *Index) FireInto(ti int, src, dst []int64) bool {
	for _, e := range x.pre[ti] {
		if src[e.State] < e.N {
			return false
		}
	}
	copy(dst, src)
	for _, e := range x.delta[ti] {
		dst[e.State] += e.N
	}
	return true
}

// BackFireInto writes into dst the minimal configuration from which
// firing ti covers the target counts: max(Pre, target − Δ(ti))
// componentwise, clamped at zero. It is the predecessor basis step of
// the backward coverability loop, written into a reusable buffer.
func (x *Index) BackFireInto(ti int, target, dst []int64) {
	copy(dst, target)
	for _, e := range x.delta[ti] {
		dst[e.State] -= e.N
	}
	for i, v := range dst {
		if v < 0 {
			dst[i] = 0
		}
	}
	for _, e := range x.pre[ti] {
		if dst[e.State] < e.N {
			dst[e.State] = e.N
		}
	}
}

// Affected returns the transitions whose instance weight can change
// when transition ti fires: the deduplicated dependents of ti's delta
// support, precomputed so the simulation hot path needs no per-fire
// set-building. The returned slice is shared and must not be mutated.
func (x *Index) Affected(ti int) []int { return x.affected[ti] }
