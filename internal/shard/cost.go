package shard

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// CostModel estimates the relative work of one trial at population
// size x, so the planner can cut shards at equal expected *cost*
// rather than equal trial count. Linear-cut plans straggle badly on
// geometric sweeps: with sizes 2^10..2^20 a shard holding the 2^20
// cells costs ~1000× a shard holding the 2^10 cells under any exact
// per-interaction scheduler, and the whole sweep waits on it.
//
// Costs are relative integers (only ratios matter) and must be ≥ 1 so
// every cell has positive weight. Models must be pure functions of x:
// planning is re-derived independently on every host and has to agree
// byte for byte.
type CostModel interface {
	// Name identifies the model in manifests and CLI flags.
	Name() string
	// TrialCost is the relative expected work of one trial at size x.
	TrialCost(x int64) int64
}

// UniformCost weighs every trial equally, reproducing the legacy
// equal-trial-count cut.
type UniformCost struct{}

func (UniformCost) Name() string          { return "uniform" }
func (UniformCost) TrialCost(int64) int64 { return 1 }

// LinearCost weighs a trial by its population size: convergent
// protocols under the exact per-interaction schedulers (weighted,
// uniform) execute Θ(x)–Θ(x log x) interactions per trial at
// O(log |T|) each, so expected wall time is ~linear in x to first
// order. This is the scheduler-aware default for those schedulers.
type LinearCost struct{}

func (LinearCost) Name() string { return "linear" }
func (LinearCost) TrialCost(x int64) int64 {
	if x < 1 {
		return 1
	}
	return x
}

// LogCost weighs a trial by log₂ x: under the count-batched scheduler
// the per-interaction cost is amortized away and a trial's work is
// dominated by the number of adaptive batches, which grows roughly
// with log of the population (drift tolerances scale with counts).
// This is the scheduler-aware default for countbatch.
type LogCost struct{}

func (LogCost) Name() string { return "log" }
func (LogCost) TrialCost(x int64) int64 {
	if x < 1 {
		return 1
	}
	return int64(bits.Len64(uint64(x)))
}

// DefaultCost picks the scheduler-aware model: count-batched trials
// (countbatch, and the hybrid auto scheduler that batches whenever it
// pays) cost ~log x, every exact per-interaction scheduler ~x. The
// count-batched schedulers are the ones sim gives a batch parameter.
func DefaultCost(scheduler string) CostModel {
	if batch, _, _ := sim.SchedulerParams(scheduler, 0, 0); batch > 0 {
		return LogCost{}
	}
	return LinearCost{}
}

// CostByName resolves a CLI cost-model name. The empty name and
// "auto" select the scheduler-aware default.
func CostByName(name, scheduler string) (CostModel, error) {
	switch name {
	case "", "auto":
		return DefaultCost(scheduler), nil
	case "uniform":
		return UniformCost{}, nil
	case "linear":
		return LinearCost{}, nil
	case "log":
		return LogCost{}, nil
	default:
		return nil, fmt.Errorf("shard: unknown cost model %q (have auto, uniform, linear, log)", name)
	}
}

// PlanCostBlock partitions the sweep into at most shards specs of
// near-equal total cost under the model. It walks the (size × trial)
// grid size-major in units of block trials (one trial when block is
// 0) and cuts contiguous runs — a shard covers a trial block of one
// size, whole sizes, or a mix, never an interleaving — so the manifest
// is a pure function of (spec, shards, model, block) and any host
// re-derives it byte-identically. Boundary i is the largest unit
// index k whose cumulative cost is ≤ ⌊i·total/shards⌋, and the last
// shard takes the rest. One unit costlier than the quantile width
// swallows its whole shard; quantiles falling inside the same unit
// produce no empty shards, so the manifest may carry fewer specs than
// requested. Under UniformCost every trial costs 1, so shards have
// near-equal trial counts; sweeps over geometric size ranges should
// prefer a workload-matched model so large-x shards don't straggle.
//
// block > 0 dices each size's trials into cells [0,block),
// [block,2·block), … (the last one ragged), and a shard's overlap with
// a size is one cell per block; block = 0 emits that overlap as one
// cell. The dice makes every cell boundary a pure function of (spec,
// block) — independent of the shard count — which is what anytime
// stopping needs: the StopRule is evaluated at cell boundaries, so on
// a diced plan the stopping decision (and hence the reported artifact)
// is identical whether the sweep ran on 1 worker or 100, cut 2 ways or
// 7. It also fixes the granularity of streamed deltas and of resumable
// persistence. The manifest records the dice in its Block field.
func PlanCostBlock(sw SweepSpec, shards int, model CostModel, block int) (*Manifest, error) {
	if block < 0 {
		return nil, fmt.Errorf("shard: negative trial block %d", block)
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive")
	}
	// A block longer than a size's trials is one unit of the whole size;
	// capping it at Trials keeps unit·cost within the per-size total.
	unit := min(max(block, 1), sw.Trials)
	perSize := (sw.Trials + unit - 1) / unit // units per size
	shards = min(shards, len(sw.Sizes)*perSize)
	// Per-size trial cost and size-major prefix sums over whole sizes:
	// the cumulative cost of the first j units of size si is
	// prefix[si] + j·unit·cost[si].
	cost := make([]int64, len(sw.Sizes))
	prefix := make([]int64, len(sw.Sizes)+1)
	for i, x := range sw.Sizes {
		c := model.TrialCost(x)
		if c < 1 {
			return nil, fmt.Errorf("shard: cost model %s gives non-positive cost %d at x=%d", model.Name(), c, x)
		}
		cost[i] = c
		if c > math.MaxInt64/int64(sw.Trials) || prefix[i] > math.MaxInt64-c*int64(sw.Trials) {
			return nil, fmt.Errorf("shard: total cost overflows int64 under model %s", model.Name())
		}
		prefix[i+1] = prefix[i] + c*int64(sw.Trials)
	}
	total := prefix[len(sw.Sizes)]
	if total > math.MaxInt64/int64(shards) {
		return nil, fmt.Errorf("shard: total cost %d too large for %d-shard quantiles", total, shards)
	}
	m := &Manifest{Schema: ManifestSchema, Sweep: sw, Block: block, Shards: make([]Spec, 0, shards)}
	if model.Name() != (UniformCost{}).Name() {
		m.CostModel = model.Name()
	}
	// cut returns boundary i as a trial position of the size-major
	// grid. Inside size si, whole units cost less than the whole size,
	// so the boundary never reaches the size's ragged end.
	gridEnd := len(sw.Sizes) * sw.Trials
	cut := func(i int) int {
		q := int64(i) * total / int64(shards)
		si := 0
		for si < len(sw.Sizes) && prefix[si+1] <= q {
			si++
		}
		if si == len(sw.Sizes) {
			return gridEnd
		}
		return si*sw.Trials + int((q-prefix[si])/(int64(unit)*cost[si]))*unit
	}
	prev := 0
	for i := 1; i <= shards; i++ {
		hi := cut(i)
		if i == shards {
			hi = gridEnd // guard against ⌊·⌋ shaving the last unit
		}
		if hi <= prev {
			continue // quantile landed inside the previous cut's unit
		}
		spec := Spec{ID: fmt.Sprintf("s%03d", len(m.Shards))}
		for si := prev / sw.Trials; si*sw.Trials < hi; si++ {
			lo := max(prev, si*sw.Trials) - si*sw.Trials
			end := min(hi, (si+1)*sw.Trials) - si*sw.Trials
			step := end - lo
			if block > 0 {
				step = block
			}
			for ; lo < end; lo += step {
				spec.Cells = append(spec.Cells, Cell{X: sw.Sizes[si], TrialLo: lo, TrialHi: min(lo+step, end)})
			}
		}
		m.Shards = append(m.Shards, spec)
		prev = hi
	}
	return m, nil
}

// Cost is the shard's total cost under the model: Σ over cells of
// (trial count × per-trial cost), saturating at MaxInt64 — costs are
// relative and only feed ratios, so a manifest scored under a hotter
// model than it was planned with degrades gracefully instead of
// wrapping.
func (s *Spec) Cost(model CostModel) int64 {
	total := int64(0)
	for _, c := range s.Cells {
		n := int64(c.TrialHi - c.TrialLo)
		unit := model.TrialCost(c.X)
		if n > 0 && unit > math.MaxInt64/n {
			return math.MaxInt64
		}
		if total > math.MaxInt64-n*unit {
			return math.MaxInt64
		}
		total += n * unit
	}
	return total
}

// Imbalance is the manifest's max-shard / mean-shard cost ratio under
// the model: 1.0 is a perfectly balanced plan, and the ratio
// approximates how much longer the straggler shard runs than the
// fleet average. The planner's own model scores its plans; scoring a
// linear-cut plan with the workload's real cost model is how the
// cost-weighted planner's advantage is asserted in tests and pinned
// by BenchmarkPlanImbalance.
func (m *Manifest) Imbalance(model CostModel) float64 {
	if len(m.Shards) == 0 {
		return 0
	}
	maxC, sum := int64(0), int64(0)
	for i := range m.Shards {
		c := m.Shards[i].Cost(model)
		if c > maxC {
			maxC = c
		}
		sum += c
	}
	mean := float64(sum) / float64(len(m.Shards))
	if mean == 0 {
		return 0
	}
	return float64(maxC) / mean
}
