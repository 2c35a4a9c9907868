package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// CountBatched is the count-based batch scheduler — tau-leaping for
// population protocols. Instead of sampling interactions one at a time
// (O(log |T|) each), every Step freezes the current instance weights,
// samples how many of the next B interactions fall on each enabled
// transition in one multinomial draw, and applies the aggregate
// displacement to the counts at once, so the amortized cost per
// interaction is O(|T|/B) — sub-constant once B ≫ |T|, which is what
// makes populations of 10⁸–10⁹ agents simulable in seconds.
//
// B is chosen adaptively in the style of Cao–Gillespie tau-selection:
// from the frozen weights the stepper computes each state's drift and
// variance per interaction and picks the largest B for which no
// constrained state's count is expected to move, in mean or standard
// deviation, by more than Epsilon of its current value. Constrained
// states are those in the precondition support of any transition (the
// standard reactant bounding) — every count some instance weight can
// read — so the tolerance bounds the relative weight drift within a
// batch for enabled transitions, and a disabled transition's reactants
// cannot run far past its enablement point before the freeze is
// refreshed: a count a weight reads grows from 0 by at most ~1
// expected unit per batch until real mass accumulates.
//
// Near deadlock and convergence boundaries (small counts, collapsing
// drift allowances) the selected B falls below MinBatch and the stepper
// reverts to exact per-interaction stepping on the incremental engine,
// so deadlock detection and Result/Stats semantics are preserved
// exactly where they are delicate. In batch mode LastChange and
// StablePatience coarsen to batch granularity. An
// aggregate whose sampled fires would drive a count negative — a tail
// event at the tolerated drift — is rejected wholesale and retried at
// half the batch size, degrading to exact stepping.
type CountBatched struct {
	// Epsilon is the relative per-batch drift tolerance on constrained
	// state counts; 0 means DefaultEpsilon. Must lie in (0, 1).
	Epsilon float64
	// MinBatch is the smallest batch worth aggregating: when the tau
	// selection yields less, the stepper steps exactly instead. 0 means
	// DefaultMinBatch.
	MinBatch int
	// Workers bounds the span-parallel multinomial draw on protocols
	// with more than spanSize transitions: the batch is first split
	// across fixed transition spans by a serial multinomial on the span
	// weight totals, then each span draws its conditional binomials on
	// a private RNG stream derived positionally from one fresh 64-bit
	// draw. The draw structure never depends on the worker count, so
	// the sampled fires — and hence whole runs — are byte-identical for
	// any value. 0 means auto-detect (GOMAXPROCS); 1 forces the serial
	// draw. Protocols with at most spanSize transitions always use the
	// plain serial multinomial.
	Workers int
}

// DefaultEpsilon is the drift tolerance used when CountBatched.Epsilon
// is zero: batches may move constrained counts by 5%.
const DefaultEpsilon = 0.05

// DefaultMinBatch is the aggregation threshold used when
// CountBatched.MinBatch is zero.
const DefaultMinBatch = 64

// maxBatch caps a single aggregate so the float tau never overflows
// the int64 conversion; runs are further capped by the caller's limit.
const maxBatch = int64(1) << 40

// maxRejects bounds the halve-and-retry loop on negativity rejections
// before a Step degrades to exact stepping.
const maxRejects = 4

// spanSize is the fixed transition-span width of the parallel
// multinomial draw. It is independent of the worker count — spans are
// a property of the protocol's transition list, workers only schedule
// them — which is what keeps sampled fires byte-identical across
// worker counts.
const spanSize = 256

// Name implements Scheduler.
func (CountBatched) Name() string { return "countbatch" }

// Attach implements Scheduler. Every protocol shape is supported.
func (cb CountBatched) Attach(st *State) (Stepper, error) {
	eps := cb.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if eps < 0 || eps >= 1 {
		return nil, fmt.Errorf("sim: countbatch tolerance %v outside (0, 1)", cb.Epsilon)
	}
	min := cb.MinBatch
	if min < 0 {
		return nil, fmt.Errorf("sim: countbatch min batch %d is negative", min)
	}
	if min == 0 {
		min = DefaultMinBatch
	}
	d := st.p.Space().Len()
	// The constrained-state set is static: every state read by some
	// transition's precondition, whether or not it is enabled right now
	// — the reactant bounding that keeps mid-batch enablement honest.
	con := make([]bool, d)
	for ti := 0; ti < len(st.weights); ti++ {
		for _, e := range st.idx.Pre(ti) {
			con[e.State] = true
		}
	}
	workers := cb.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	s := &countStepper{
		st:      st,
		eps:     eps,
		min:     min,
		workers: workers,
		fires:   make([]int64, len(st.weights)),
		disp:    make([]int64, d),
		mu:      make([]float64, d),
		sig:     make([]float64, d),
		con:     con,
	}
	if nspans := (len(st.weights) + spanSize - 1) / spanSize; nspans > 1 {
		s.spanW = make([]float64, nspans)
		s.spanN = make([]int64, nspans)
	}
	return s, nil
}

type countStepper struct {
	st      *State
	eps     float64
	min     int
	workers int       // span-draw worker bound (resolved, ≥ 1)
	fires   []int64   // scratch: multinomial fire count per transition
	disp    []int64   // scratch: aggregate displacement per state
	mu      []float64 // scratch: per-state drift per interaction
	sig     []float64 // scratch: per-state variance per interaction
	con     []bool    // static: state is read by some precondition
	spanW   []float64 // scratch: per-span weight totals (nil: single span)
	spanN   []int64   // scratch: per-span batch shares
}

func (s *countStepper) Step(rng *RNG, limit int) (int, bool) {
	st := s.st
	if !st.ensureLive() {
		return 0, false
	}
	b := s.selectBatch()
	if b > int64(limit) {
		b = int64(limit)
	}
	for attempt := 0; b >= int64(s.min) && attempt < maxRejects; attempt++ {
		s.drawFires(rng, b)
		if st.ApplyAggregate(s.fires, s.disp) {
			return int(b), true
		}
		b /= 2
	}
	return s.exact(rng, limit)
}

// drawFires samples the batch's per-transition fire counts into
// s.fires. Protocols within one span use the plain serial multinomial;
// wider ones split the batch across fixed transition spans — a serial
// multinomial over the span weight totals from the run's main stream,
// then per-span conditional binomials on streams derived positionally
// from one fresh 64-bit draw. Workers only schedule spans, so the draw
// is byte-identical for every worker count.
func (s *countStepper) drawFires(rng *RNG, b int64) {
	w := s.st.weights
	if s.spanW == nil {
		rng.Multinomial(b, w, s.fires)
		return
	}
	nspans := len(s.spanW)
	for si := 0; si < nspans; si++ {
		lo, hi := si*spanSize, (si+1)*spanSize
		if hi > len(w) {
			hi = len(w)
		}
		var t float64
		for _, x := range w[lo:hi] {
			if x > 0 {
				t += x
			}
		}
		s.spanW[si] = t
	}
	rng.Multinomial(b, s.spanW, s.spanN)
	base := int64(rng.Uint64())
	workers := s.workers
	if workers > nspans {
		workers = nspans
	}
	if workers <= 1 {
		var sub RNG
		for si := 0; si < nspans; si++ {
			s.drawSpan(&sub, base, si)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sub RNG
			for {
				si := int(next.Add(1)) - 1
				if si >= nspans {
					return
				}
				s.drawSpan(&sub, base, si)
			}
		}()
	}
	wg.Wait()
}

// drawSpan draws span si's share of the batch into its (disjoint)
// slice of s.fires on the positional stream (base, si).
func (s *countStepper) drawSpan(sub *RNG, base int64, si int) {
	w := s.st.weights
	lo, hi := si*spanSize, (si+1)*spanSize
	if hi > len(w) {
		hi = len(w)
	}
	sub.Seed(DeriveSeed(base, si))
	sub.Multinomial(s.spanN[si], w[lo:hi], s.fires[lo:hi])
}

// exact advances up to MinBatch interactions one at a time on the
// incremental engine — the boundary regime where an aggregate is not
// worth its O(|T|) resync, or where the tau selection collapsed near a
// deadlock or convergence boundary.
func (s *countStepper) exact(rng *RNG, limit int) (int, bool) {
	k := s.min
	if k > limit {
		k = limit
	}
	return s.exactN(rng, k)
}

// exactN advances up to k interactions one at a time, reporting
// (fired, fired > 0) if the configuration deadlocks mid-way. The
// hybrid Auto stepper drives longer exact phases through it directly.
func (s *countStepper) exactN(rng *RNG, k int) (int, bool) {
	for fired := 0; fired < k; fired++ {
		ti, ok := s.st.Sample(rng)
		if !ok {
			return fired, fired > 0
		}
		s.st.Fire(ti)
	}
	return k, true
}

// selectBatch computes the tau-leap batch size: the largest number of
// interactions for which, under the frozen per-interaction transition
// distribution w/Σw, every constrained state's count moves by at most
// eps·count (but at least 1) in both expectation and standard
// deviation. States never read by any precondition do not constrain
// the batch — their counts influence no weight; constrained states
// with zero drift under the current weights (e.g. reactants of a
// transition that stays disabled) bind nothing either.
func (s *countStepper) selectBatch() int64 {
	st := s.st
	for i := range s.mu {
		s.mu[i], s.sig[i] = 0, 0
	}
	invW := 1 / st.total
	for ti, w := range st.weights {
		if w <= 0 {
			continue
		}
		pw := w * invW
		for _, e := range st.idx.Delta(ti) {
			d := float64(e.N)
			s.mu[e.State] += pw * d
			s.sig[e.State] += pw * d * d
		}
	}
	best := math.Inf(1)
	for i, constrained := range s.con {
		if !constrained {
			continue
		}
		lim := s.eps * float64(st.cv[i])
		if lim < 1 {
			lim = 1
		}
		if m := math.Abs(s.mu[i]); m > 0 {
			if b := lim / m; b < best {
				best = b
			}
		}
		if v := s.sig[i]; v > 0 {
			if b := lim * lim / v; b < best {
				best = b
			}
		}
	}
	if !(best < float64(maxBatch)) {
		return maxBatch
	}
	return int64(best)
}
