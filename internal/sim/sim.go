// Package sim executes protocols under pluggable randomized schedulers.
// The default is the exact weighted scheduler: the natural
// generalization of the classical uniform-random-pair scheduler to
// arbitrary-width (and non-conservative) transitions, where each
// enabled transition is selected with probability proportional to the
// number of ways of choosing its precondition multiset from the current
// configuration. See Scheduler for the alternatives.
//
// Runs execute on an incremental engine (State) that fires transitions
// in place and reweighs only the transitions affected by each step.
// All randomness is seed-driven; runs are reproducible.
//
// Two invariants make runs composable across processes and machines
// (they are the foundation of the internal/shard pipeline):
//
//   - The seed contract is positional. The seed of (size x, trial t)
//     in a sweep is DeriveSeed(DeriveSeedK(base, x), t) — a pure
//     function of the sweep's base seed and the trial's coordinates,
//     never of execution order, worker count, or which process runs
//     it. SweepCells therefore executes any absolute trial range
//     [lo, hi) bit-identically to the same trials of a full run.
//   - Stats are mergeable accumulators. Aggregates carry exact
//     integer counts, sums (128-bit for Σ steps²) and extrema, never
//     precomputed means, so Stats.Merge is associative and
//     commutative and folding any partition of a trial set — in any
//     order — equals direct aggregation bit for bit. Means, variance
//     and confidence intervals are methods computed at render time.
//
// Both multi-trial entry points run on one trial pool: a fixed set of
// workers, the caller among them, claims trials in plan order across
// a whole list of cells, each worker on an engine State it built and
// reuses, and each cell's Stats are delivered in plan order the moment
// the cell and every cell before it are complete. RunMany is a
// one-cell call, and SweepCells — behind the shard executor, which
// hands a whole shard's cells over at once — takes any cell list;
// Options.Workers bounds the trials in flight across the call.
//
// On top of those two invariants sits the anytime layer: a CellSink,
// which the shard executor feeds from SweepCells' deliveries, streams
// each cell's Stats delta (merging deltas is order-erasing anyway),
// and a StopRule adds sequential stopping —
// a point stops accruing trials once its relative confidence interval
// meets the target, evaluated only on the gap-free prefix of its
// cells folded in trial order, so the stopping decision is a pure
// function of (seed, cell grid, rule) and never of scheduling.
package sim

import (
	"context"
	"errors"
	"math"
	"math/bits"

	"repro/internal/conf"
	"repro/internal/core"
)

// Options configures a run.
type Options struct {
	// Seed drives the PRNG. Two runs with equal seeds and inputs are
	// identical.
	Seed int64
	// MaxSteps caps the number of interactions. Zero means 1<<20.
	MaxSteps int
	// StablePatience: the run is declared converged when the output
	// consensus has not changed for this many consecutive steps (and at
	// least one step was taken or the initial configuration is already
	// a consensus). Zero means 4·MaxSteps/5 is NOT used; instead the
	// run executes MaxSteps and reports the last step at which the
	// consensus output changed.
	StablePatience int
	// Scheduler selects the interaction scheduler; nil means Weighted{}.
	Scheduler Scheduler
	// Workers bounds the trial pool behind RunMany and SweepCells: at
	// most this many trials run at once; 0 means GOMAXPROCS. Results
	// are deterministic regardless of the value.
	Workers int
}

const defaultMaxSteps = 1 << 20

func (o Options) scheduler() Scheduler {
	if o.Scheduler == nil {
		return Weighted{}
	}
	return o.Scheduler
}

// Result reports a run's outcome.
type Result struct {
	// Steps is the number of interactions executed.
	Steps int
	// LastChange is the last step index at which the configuration's
	// output set changed; after it the output stayed constant to the
	// end of the run. Under a batched scheduler it is reported at batch
	// granularity.
	LastChange int
	// Converged reports that the run ended in (or patience-detected) a
	// lasting output consensus.
	Converged bool
	// Output is the final output set.
	Output core.OutputSet
	// Final is the final configuration.
	Final conf.Config
	// Deadlocked reports that no transition was enabled.
	Deadlocked bool
}

// ConsensusBool translates the final output set into a predicate value:
// {1} → true, ∅ or ⊆{0} → false. ok is false when the output is mixed
// or undetermined (★ present).
func (r *Result) ConsensusBool() (value, ok bool) {
	switch r.Output {
	case core.Set1:
		return true, true
	case core.Set0, 0:
		return false, true
	default:
		return false, false
	}
}

// Run executes the protocol from ρ_L + input under the scheduler
// selected by opts.
func Run(p *core.Protocol, input conf.Config, opts Options) (*Result, error) {
	st := NewState(p)
	stepper, err := opts.scheduler().Attach(st)
	if err != nil {
		return nil, err
	}
	if err := st.Reset(input); err != nil {
		return nil, err
	}
	res, _ := runLoop(nil, st, stepper, NewRNG(opts.Seed), opts)
	res.Final = st.Snapshot()
	return &res, nil
}

// cancelCheckEvery is how many interactions a run executes between
// polls of the cancellation channel: rare enough that the poll is free
// on the per-interaction path, frequent enough that cancellation lands
// within microseconds.
const cancelCheckEvery = 8192

// runLoop drives one run on an already-reset state. It is the shared
// core of Run and the trial pool's workers; it leaves Result.Final
// unset, since only Run reports the final configuration. A nil done
// channel disables cancellation; when done fires mid-run, runLoop
// returns ok=false and the partial trajectory is discarded.
func runLoop(done <-chan struct{}, st *State, stepper Stepper, rng *RNG, opts Options) (res Result, ok bool) {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	res.Output = st.Output()
	sinceChange := 0
	sinceCancel := 0
	steps := 0
	for steps < maxSteps {
		n, ok := stepper.Step(rng, maxSteps-steps)
		if !ok {
			res.Deadlocked = true
			break
		}
		steps += n
		res.Steps = steps
		if done != nil {
			sinceCancel += n
			if sinceCancel >= cancelCheckEvery {
				sinceCancel = 0
				select {
				case <-done:
					return res, false
				default:
				}
			}
		}
		out := st.Output()
		if out != res.Output {
			res.Output = out
			res.LastChange = steps
			sinceChange = 0
		} else {
			sinceChange += n
			if opts.StablePatience > 0 && sinceChange >= opts.StablePatience && consensus(out) {
				res.Converged = true
				break
			}
		}
	}
	if res.Deadlocked && consensus(res.Output) {
		res.Converged = true
	}
	if opts.StablePatience == 0 && consensus(res.Output) {
		// Whole-run mode: converged if the tail after LastChange is a
		// consensus.
		res.Converged = true
	}
	return res, true
}

func consensus(s core.OutputSet) bool {
	return s == core.Set1 || s == core.Set0 || s == 0
}

// instanceWeight counts the number of distinct ways to draw the
// multiset pre from cur: Π_p C(cur(p), pre(p)). A float64 is ample for
// the populations the simulator targets. The engine maintains the same
// quantity incrementally; this standalone form remains the reference
// implementation the engine is tested against.
func instanceWeight(pre, cur conf.Config) float64 {
	w := 1.0
	for i := 0; i < cur.Space().Len(); i++ {
		need := pre.Get(i)
		if need == 0 {
			continue
		}
		have := cur.Get(i)
		if have < need {
			return 0
		}
		w *= binom(have, need)
	}
	return w
}

func binom(n, k int64) float64 {
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := int64(0); i < k; i++ {
		out *= float64(n-i) / float64(i+1)
	}
	return out
}

// Stats aggregates repeated runs. All fields are mergeable
// accumulators — exact integer counts, sums, and extrema rather than
// precomputed means — so partial statistics from disjoint trial ranges
// (sharded sweeps, multiple hosts) fold into exactly the value a
// single-process run over the union would have produced: Merge is
// associative and commutative, bit for bit. Derived quantities (means,
// variance, confidence intervals) are methods computed on demand.
type Stats struct {
	Trials    int `json:"trials"`
	Converged int `json:"converged"`
	Correct   int `json:"correct"`
	// SumSteps is Σ Steps over all trials. int64 is exact for any
	// realistic sweep (2^31 steps × 2^32 trials stays in range).
	SumSteps int64 `json:"sum_steps"`
	// SumStepsSqHi/Lo form the 128-bit Σ Steps² (hi·2⁶⁴ + lo), kept
	// exact so merged variance is independent of shard boundaries; a
	// float64 accumulator would make merges order-sensitive past 2⁵³.
	SumStepsSqHi uint64 `json:"sum_steps_sq_hi"`
	SumStepsSqLo uint64 `json:"sum_steps_sq_lo"`
	// MinSteps/MaxSteps are extrema over all trials; MinSteps is
	// meaningful only when Trials > 0.
	MinSteps int `json:"min_steps"`
	MaxSteps int `json:"max_steps"`
	// SumLastChange is Σ LastChange over converged trials only: the
	// numerator of the empirical "time to stable consensus".
	SumLastChange int64 `json:"sum_last_change"`
}

// Observe folds one run into the accumulators. correct is whether the
// run's consensus matched the expected predicate value.
func (s *Stats) Observe(res *Result, expected bool) {
	steps := res.Steps
	if s.Trials == 0 || steps < s.MinSteps {
		s.MinSteps = steps
	}
	if steps > s.MaxSteps {
		s.MaxSteps = steps
	}
	s.Trials++
	s.SumSteps += int64(steps)
	hi, lo := bits.Mul64(uint64(steps), uint64(steps))
	var carry uint64
	s.SumStepsSqLo, carry = bits.Add64(s.SumStepsSqLo, lo, 0)
	s.SumStepsSqHi += hi + carry
	if res.Converged {
		s.Converged++
		s.SumLastChange += int64(res.LastChange)
		if v, ok := res.ConsensusBool(); ok && v == expected {
			s.Correct++
		}
	}
}

// Merge folds another partial aggregate into s. Merging the per-range
// aggregates of any partition of a trial set, in any order, yields the
// same Stats as observing every trial directly.
func (s *Stats) Merge(o Stats) {
	if o.Trials == 0 {
		return
	}
	if s.Trials == 0 || o.MinSteps < s.MinSteps {
		s.MinSteps = o.MinSteps
	}
	if o.MaxSteps > s.MaxSteps {
		s.MaxSteps = o.MaxSteps
	}
	s.Trials += o.Trials
	s.Converged += o.Converged
	s.Correct += o.Correct
	s.SumSteps += o.SumSteps
	var carry uint64
	s.SumStepsSqLo, carry = bits.Add64(s.SumStepsSqLo, o.SumStepsSqLo, 0)
	s.SumStepsSqHi += o.SumStepsSqHi + carry
	s.SumLastChange += o.SumLastChange
}

// MeanSteps is the mean interaction count per trial.
func (s *Stats) MeanSteps() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.SumSteps) / float64(s.Trials)
}

// MeanLastChange is the mean step of the last output change among
// converged runs: the empirical "time to stable consensus".
func (s *Stats) MeanLastChange() float64 {
	if s.Converged == 0 {
		return 0
	}
	return float64(s.SumLastChange) / float64(s.Converged)
}

// VarianceSteps is the sample variance of the per-trial step counts.
func (s *Stats) VarianceSteps() float64 {
	if s.Trials < 2 {
		return 0
	}
	n := float64(s.Trials)
	sumSq := float64(s.SumStepsSqHi)*0x1p64 + float64(s.SumStepsSqLo)
	mean := float64(s.SumSteps) / n
	v := (sumSq - n*mean*mean) / (n - 1)
	if v < 0 { // float cancellation on near-constant samples
		v = 0
	}
	return v
}

// HalfCI95Steps is the half-width of the normal-approximation 95%
// confidence interval for MeanSteps.
func (s *Stats) HalfCI95Steps() float64 {
	if s.Trials < 2 {
		return 0
	}
	return 1.96 * math.Sqrt(s.VarianceSteps()/float64(s.Trials))
}

// DeriveSeed hashes (base seed, trial index) through the splitmix64
// finalizer so per-trial streams are uncorrelated even across nearby
// base seeds and trial indices (an affine derivation like base+trial
// makes overlapping streams trivial to hit). RunMany uses it
// internally; CLI tools deriving their own per-run seeds should too.
func DeriveSeed(base int64, trial int) int64 {
	return int64(mix64(uint64(base) + splitmixGamma*uint64(trial+1)))
}

// DeriveSeedK is DeriveSeed for 64-bit indices on a separated
// substream: SweepCells derives each population size's base seed with
// it before the per-trial DeriveSeed fan-out. The extra mix of the base
// keeps (base, k) streams disjoint from DeriveSeed's (base, trial)
// streams, so a sweep point's seed never aliases a trial seed of a
// nearby base. (The old affine base + x·7919 derivation had the same
// collision structure DeriveSeed replaced in RunMany.)
func DeriveSeedK(base, k int64) int64 {
	return int64(mix64(mix64(uint64(base)+splitmixGamma) + splitmixGamma*uint64(k)))
}

// RunMany executes trials runs with derived seeds and aggregates
// statistics, comparing each consensus with the expected predicate
// value. Trial t runs on DeriveSeed(opts.Seed, t). It is one cell of
// the package's trial pool (see SweepCells), so the statistics are
// deterministic in opts.Seed regardless of scheduling. Cancelling ctx
// stops the workers promptly — mid-run, not merely between trials —
// and returns ctx.Err().
func RunMany(ctx context.Context, p *core.Protocol, input conf.Config, expected bool, trials int, opts Options) (*Stats, error) {
	if trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	if !input.Space().Equal(p.Space()) {
		return nil, errors.New("sim: input over wrong space")
	}
	cell := poolCell{initial: p.InitialConfig(input), seed: opts.Seed, expected: expected, hi: trials}
	var stats Stats
	err := runCells(ctx, p, []poolCell{cell}, opts, func(_ int, st Stats) error {
		stats = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &stats, nil
}
