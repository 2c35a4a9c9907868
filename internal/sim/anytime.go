package sim

import "fmt"

// CellSink receives one finished cell's aggregated statistics the
// moment that cell completes: size x, the absolute trial range
// [trialLo, trialHi) it covers, and the mergeable Stats over exactly
// those trials. It is the streaming seam of the anytime sweep
// pipeline — the shard executor calls it once per finished cell, and
// ppserve forwards each call as one NDJSON delta line.
//
// Sinks may be called from multiple worker goroutines concurrently
// unless the caller documents otherwise. The shard executor
// serializes its calls and makes them in plan order, so a sink passed
// there needs no locking of its own. Consumers should
// still rely only on the *set* of deltas: folding them through
// Stats.Merge (associative, commutative) erases any order.
type CellSink func(x int64, trialLo, trialHi int, stats Stats)

// DefaultMinTrials is the minimum-sample floor a StopRule falls back
// to when none is given: below it the normal-approximation confidence
// interval is too unstable to stop on.
const DefaultMinTrials = 8

// StopRule is the sequential-stopping policy of an anytime sweep: a
// point stops accruing trials once its 95% confidence half-width
// drops to TargetRelCI × the running mean, provided at least
// MinTrials trials were observed. The rule is evaluated only at cell
// boundaries, on the gap-free prefix of a point's cells folded in
// trial order — never on an arbitrary subset — so for a fixed seed
// and a fixed cell grid the stopping decision is a pure function of
// the sweep spec and the rule, independent of worker count, shard
// cut, or which process evaluates it. (Cut-independence additionally
// requires the plan's cell boundaries themselves to be cut-independent;
// shard.PlanCostBlock's fixed trial blocks provide that.)
//
// The zero rule is disabled: every planned trial runs.
type StopRule struct {
	// TargetRelCI is the relative CI target: stop once
	// HalfCI95Steps ≤ TargetRelCI × MeanSteps. 0 disables stopping.
	TargetRelCI float64 `json:"target_rel_ci,omitempty"`
	// MinTrials is the floor before the rule may fire (0 = DefaultMinTrials,
	// minimum 2 — a single trial has no variance estimate).
	MinTrials int `json:"min_trials,omitempty"`
}

// Enabled reports whether the rule can ever stop a point.
func (r StopRule) Enabled() bool { return r.TargetRelCI > 0 }

// Validate rejects rules that could never be evaluated coherently.
func (r StopRule) Validate() error {
	if r.TargetRelCI < 0 || r.TargetRelCI >= 1 {
		return fmt.Errorf("sim: stop rule target relative CI %g outside [0, 1)", r.TargetRelCI)
	}
	if r.MinTrials < 0 {
		return fmt.Errorf("sim: negative stop rule trial floor %d", r.MinTrials)
	}
	if !r.Enabled() && r.MinTrials != 0 {
		return fmt.Errorf("sim: stop rule trial floor %d without a CI target", r.MinTrials)
	}
	return nil
}

// WithDefaults fills the trial floor. Every layer that evaluates the
// rule must normalize through here first, so a defaulted floor and
// its spelled-out value make identical stopping decisions.
func (r StopRule) WithDefaults() StopRule {
	if !r.Enabled() {
		return StopRule{}
	}
	if r.MinTrials <= 0 {
		r.MinTrials = DefaultMinTrials
	}
	if r.MinTrials < 2 {
		r.MinTrials = 2
	}
	return r
}

// Satisfied reports whether the prefix aggregate st meets the rule:
// enough trials and a tight-enough relative confidence interval.
// Callers must pass a *prefix* — trials [0, n) folded in order — for
// the decision to be the canonical one.
func (r StopRule) Satisfied(st *Stats) bool {
	r = r.WithDefaults()
	if !r.Enabled() || st.Trials < r.MinTrials {
		return false
	}
	return st.HalfCI95Steps() <= r.TargetRelCI*st.MeanSteps()
}
