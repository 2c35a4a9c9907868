package sim

import (
	"errors"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/petri"
)

// State is a mutable simulation configuration with incrementally
// maintained transition weights: firing a transition updates the counts
// in place and reweighs only the transitions whose precondition touches
// a changed state (via the net's dependency index), instead of the
// O(|T|·|P|) full rescan of the naive scheduler. A Fenwick tree over the
// per-transition instance weights supports O(log |T|) weighted sampling,
// and per-output-class occupancy counters make the output set γ(ρ) an
// O(1) read.
//
// A State is not safe for concurrent use; RunMany gives each worker its
// own. Reset rebinds the same storage to a fresh initial configuration,
// so the steady-state step path performs no allocations.
type State struct {
	p   *core.Protocol
	net *petri.Net
	idx *petri.Index

	counts conf.Config // owned; mutated in place
	cv     []int64     // counts' backing slice (the hot-path view)
	agents int64       // Σ counts, maintained incrementally

	weights []float64 // exact instance weight per transition
	tree    []float64 // Fenwick tree (1-based) over weights
	total   float64   // running Σ weights; exact after rebuild
	mask    int       // largest power of two ≤ len(weights)
	fires   int       // fires since the last exact rebuild
	stale   bool      // tree lags weights; Sample and Fire rebuild first

	deltaAgents []int64 // per transition: Σ Post − Σ Pre
	pre         []preShape

	gamma []core.Output
	occ   [4]int // occupied-state count per output class, indexed by Output

	// runs counts resets: a Stepper with per-run state (Auto's exact
	// phase) compares it to the value it last saw to notice that a new
	// run began on the reused state.
	runs uint64
}

// preShape is a transition precondition specialized for the dominant
// interaction shapes, so the per-step reweigh avoids the generic
// sparse-product loop: the two-agent preconditions a + b and 2·a cover
// every classical 2→2 protocol and share one weight expression,
// twoWeight, which Fire and reweigh evaluate inline.
type preShape struct {
	kind preKind
	a, b int32   // state indices (kindTwo: b = a for a twin; kindSingle: a)
	k    int64   // kindSingle: the multiplicity on state a; kindTwo: s
	f    float64 // kindTwo: the factor f
}

type preKind uint8

const (
	kindTwo     preKind = iota // pre = a + b, a ≠ b (s = 0, f = 1) or 2·a (b = a, s = 1, f = 0.5)
	kindEmpty                  // empty precondition: weight is always 1
	kindSingle                 // pre = k·a, k ≠ 2
	kindGeneric                // anything else: generic sparse product
)

func shapeOf(pre []petri.SparseEntry) preShape {
	switch len(pre) {
	case 0:
		return preShape{kind: kindEmpty}
	case 1:
		e := pre[0]
		if e.N == 2 {
			return preShape{kind: kindTwo, a: int32(e.State), b: int32(e.State), k: 1, f: 0.5}
		}
		return preShape{kind: kindSingle, a: int32(e.State), k: e.N}
	case 2:
		if pre[0].N == 1 && pre[1].N == 1 {
			return preShape{kind: kindTwo, a: int32(pre[0].State), b: int32(pre[1].State), f: 1}
		}
	}
	return preShape{kind: kindGeneric}
}

// twoWeight is the instance weight of a two-agent precondition:
// ca·cb for a pair a + b (s = 0, f = 1) and C(ca, 2) = ca·(ca−1)·½ for
// a twin 2·a (cb = ca, s = 1, f = 0.5). It is bit-identical to the
// two formulas written apart, since ×1 is exact and the twin keeps
// their multiplication order, and zero exactly when the precondition
// is disabled: counts are never negative, and the max keeps the twin
// at ca = 0 from yielding −0. It stays under the compiler's inlining
// budget, so the per-fire reweigh pays no call for these shapes.
func twoWeight(ca, cb, s int64, f float64) float64 {
	return float64(ca) * float64(max(cb-s, 0)) * f
}

// rebuildEvery bounds floating-point drift in the Fenwick tree: after
// this many fires the tree and total are recomputed exactly from the
// (always exact) per-transition weights.
const rebuildEvery = 1 << 15

// NewState allocates an engine state for a protocol. Call Reset before
// stepping.
func NewState(p *core.Protocol) *State {
	net := p.Net()
	n := net.Len()
	idx := net.Index()
	mask := 1
	for mask*2 <= n {
		mask *= 2
	}
	st := &State{
		p:           p,
		net:         net,
		idx:         idx,
		counts:      conf.New(p.Space()),
		weights:     make([]float64, n),
		tree:        make([]float64, n+1),
		mask:        mask,
		deltaAgents: make([]int64, n),
		gamma:       p.GammaTable(),
	}
	st.cv = st.counts.RawCounts()
	st.pre = make([]preShape, n)
	for ti := 0; ti < n; ti++ {
		var d int64
		for _, e := range idx.Delta(ti) {
			d += e.N
		}
		st.deltaAgents[ti] = d
		st.pre[ti] = shapeOf(idx.Pre(ti))
	}
	return st
}

// Reset loads ρ_L + input as the current configuration and recomputes
// every derived structure. It reuses the state's storage.
func (st *State) Reset(input conf.Config) error {
	if !input.Space().Equal(st.p.Space()) {
		return errors.New("sim: input over wrong space")
	}
	st.resetFrom(st.p.InitialConfig(input))
	return nil
}

// resetFrom is Reset for a pre-built initial configuration over the
// protocol's space; RunMany builds the initial configuration once and
// resets each worker from it without per-trial validation.
func (st *State) resetFrom(initial conf.Config) {
	st.runs++
	st.counts.CopyFrom(initial)
	st.agents = 0
	st.occ = [4]int{}
	for i, n := range st.cv {
		st.agents += n
		if n > 0 {
			st.occ[st.gamma[i]]++
		}
	}
	st.Resync()
}

// Resync recomputes every transition weight and the Fenwick tree
// exactly from the current counts.
func (st *State) Resync() {
	st.reweigh()
	st.rebuild()
}

// reweigh recomputes every transition weight and the total exactly
// from the current counts — O(|T|·width) work that aggregate appliers
// pay once per batch instead of reweighing per interaction — and marks
// the Fenwick tree stale. The total is summed in the index order
// rebuild sums it, so it is bit-identical to a rebuild's: the batch
// step reads only the weights and the total, and a batch followed by
// another batch never pays for the tree.
func (st *State) reweigh() {
	total := 0.0
	for ti := range st.weights {
		var w float64
		if p := &st.pre[ti]; p.kind == kindTwo {
			w = twoWeight(st.cv[p.a], st.cv[p.b], p.k, p.f)
		} else {
			w = st.weight(ti)
		}
		st.weights[ti] = w
		total += w
	}
	st.total = total
	st.stale = true
}

// ApplyAggregate fires transition ti fires[ti] times for every ti, as
// one aggregate displacement: the summed delta is accumulated over the
// dependency index, applied to the counts in a single pass, and the
// weights are then resynced exactly — the engine half of the
// count-based batch regime; the Fenwick tree is rebuilt only when a
// Sample or Fire next reads it. disp is caller-owned scratch with one
// slot per state. When some count would go negative the state is left
// unchanged and ok is false (the caller shrinks its batch and
// retries). ApplyAggregate checks only count non-negativity of the net
// displacement; the caller is responsible for the fires being a
// plausible interaction batch.
func (st *State) ApplyAggregate(fires []int64, disp []int64) bool {
	for i := range disp {
		disp[i] = 0
	}
	st.idx.AggregateDelta(fires, disp)
	if !st.counts.AddDeltaInPlace(disp) {
		return false
	}
	for ti, k := range fires {
		if k != 0 {
			st.agents += k * st.deltaAgents[ti]
		}
	}
	for i, d := range disp {
		if d == 0 {
			continue
		}
		// The state's old count was cv[i]−d: occupancy flips when a
		// count crosses zero in either direction.
		if now := st.cv[i]; now == d {
			st.occ[st.gamma[i]]++
		} else if now == 0 {
			st.occ[st.gamma[i]]--
		}
	}
	st.reweigh()
	return true
}

// weight computes transition ti's exact instance weight from the
// current counts: Π C(counts(p), pre(p)) over the sparse precondition,
// through the shape-specialized fast paths.
func (st *State) weight(ti int) float64 {
	switch p := &st.pre[ti]; p.kind {
	case kindTwo:
		return twoWeight(st.cv[p.a], st.cv[p.b], p.k, p.f)
	case kindSingle:
		ca := st.cv[p.a]
		if ca < p.k {
			return 0
		}
		return binom(ca, p.k)
	case kindEmpty:
		return 1
	default:
		w := 1.0
		for _, e := range st.idx.Pre(ti) {
			have := st.cv[e.State]
			if have < e.N {
				return 0
			}
			w *= binom(have, e.N)
		}
		return w
	}
}

// Fire fires transition ti in place, reporting ok=false (and leaving
// the state unchanged) when it is disabled.
func (st *State) Fire(ti int) bool {
	// The weights invariant (every entry exact for the current counts)
	// makes enabledness an O(1) read.
	if st.weights[ti] <= 0 {
		return false
	}
	if st.stale {
		st.rebuild()
	}
	for _, e := range st.idx.Delta(ti) {
		old := st.cv[e.State]
		now := old + e.N
		st.cv[e.State] = now
		if old == 0 {
			st.occ[st.gamma[e.State]]++
		} else if now == 0 {
			st.occ[st.gamma[e.State]]--
		}
	}
	st.agents += st.deltaAgents[ti]
	for _, dt := range st.idx.Affected(ti) {
		// weight is over the inlining budget: the two-agent shapes,
		// almost every affected transition, skip its call.
		var w float64
		if p := &st.pre[dt]; p.kind == kindTwo {
			w = twoWeight(st.cv[p.a], st.cv[p.b], p.k, p.f)
		} else {
			w = st.weight(dt)
		}
		if w != st.weights[dt] {
			d := w - st.weights[dt]
			st.weights[dt] = w
			st.total += d
			st.treeAdd(dt, d)
		}
	}
	if st.fires++; st.fires >= rebuildEvery {
		st.rebuild()
	}
	return true
}

// Sample draws a transition with probability proportional to its
// instance weight, reporting ok=false when no transition is enabled.
// It does not fire the transition.
func (st *State) Sample(rng *RNG) (ti int, ok bool) {
	if st.stale {
		st.rebuild()
	}
	if !st.ensureLive() {
		return 0, false
	}
	for attempt := 0; attempt < 2; attempt++ {
		ti := st.find(rng.Float64() * st.total)
		if ti < len(st.weights) && st.weights[ti] > 0 {
			return ti, true
		}
		// Drift artifact: the search landed on a zero-weight slot.
		st.rebuild()
		if st.total == 0 {
			return 0, false
		}
	}
	// Exact linear fallback (unreachable in practice).
	r := rng.Float64() * st.total
	last := -1
	for ti, w := range st.weights {
		if w > 0 {
			last = ti
			if r < w {
				return ti, true
			}
			r -= w
		}
	}
	if last >= 0 {
		return last, true
	}
	return 0, false
}

// ensureLive reports whether any transition is enabled. Enabled
// transitions have weight ≥ 1, so a running total below 1 is either a
// true deadlock or accumulated float drift: it decides with an exact
// rebuild. Both the weighted sampler and the uniform-pair scheduler
// gate their steps on it.
func (st *State) ensureLive() bool {
	if st.total < 1 {
		st.rebuild()
		if st.total == 0 {
			return false
		}
	}
	return true
}

// find returns the smallest index whose cumulative weight prefix
// exceeds r (the Fenwick-tree descent).
func (st *State) find(r float64) int {
	pos := 0
	for bit := st.mask; bit > 0; bit >>= 1 {
		if next := pos + bit; next <= len(st.weights) && st.tree[next] <= r {
			r -= st.tree[next]
			pos = next
		}
	}
	return pos
}

// treeAdd adds d to slot ti of the Fenwick tree.
func (st *State) treeAdd(ti int, d float64) {
	for i := ti + 1; i <= len(st.weights); i += i & (-i) {
		st.tree[i] += d
	}
}

// rebuild recomputes the Fenwick tree and running total exactly from
// the per-transition weights, clearing accumulated float drift.
func (st *State) rebuild() {
	n := len(st.weights)
	total := 0.0
	for i := 1; i <= n; i++ {
		st.tree[i] = st.weights[i-1]
		total += st.weights[i-1]
	}
	for i := 1; i <= n; i++ {
		if j := i + (i & -i); j <= n {
			st.tree[j] += st.tree[i]
		}
	}
	st.total = total
	st.fires = 0
	st.stale = false
}

// Output returns γ(ρ) for the current configuration in O(1).
func (st *State) Output() core.OutputSet {
	var s core.OutputSet
	if st.occ[core.Out0] > 0 {
		s |= core.Set0
	}
	if st.occ[core.OutStar] > 0 {
		s |= core.SetStar
	}
	if st.occ[core.Out1] > 0 {
		s |= core.Set1
	}
	return s
}

// Agents returns |ρ|, maintained incrementally.
func (st *State) Agents() int64 { return st.agents }

// Count returns the current count of the state with the given index.
func (st *State) Count(i int) int64 { return st.cv[i] }

// Weight returns transition ti's current instance weight (zero iff
// disabled).
func (st *State) Weight(ti int) float64 { return st.weights[ti] }

// Snapshot returns an independent copy of the current configuration.
func (st *State) Snapshot() conf.Config { return st.counts.Clone() }
