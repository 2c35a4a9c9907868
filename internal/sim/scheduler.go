package sim

import (
	"fmt"
	"slices"
	"strings"
)

// Scheduler is a pluggable interaction-selection policy over the
// incremental engine. Implementations must be stateless values: Attach
// binds a scheduler to one engine State and returns the Stepper that
// carries any per-run scratch, so one scheduler value can serve many
// concurrent workers.
type Scheduler interface {
	// Name identifies the scheduler in CLI flags and diagnostics.
	Name() string
	// Attach validates the protocol's shape for this policy and binds to
	// the state. The returned Stepper stays valid across State.Reset.
	Attach(st *State) (Stepper, error)
}

// Stepper advances a run on the state it was attached to.
type Stepper interface {
	// Step executes up to limit ≥ 1 interactions, returning the number
	// executed and ok=false when the configuration is deadlocked
	// (nothing can fire, now or ever).
	Step(rng *RNG, limit int) (fired int, ok bool)
}

// Weighted is the exact scheduler: each enabled transition fires with
// probability proportional to its instance weight (the number of ways
// of drawing its precondition multiset from the configuration), the
// natural generalization of the classical uniform-random-pair scheduler
// to arbitrary-width transitions. It is the default.
type Weighted struct{}

// Name implements Scheduler.
func (Weighted) Name() string { return "weighted" }

// Attach implements Scheduler. Every protocol shape is supported.
func (Weighted) Attach(st *State) (Stepper, error) {
	return &weightedStepper{st: st}, nil
}

type weightedStepper struct{ st *State }

func (s *weightedStepper) Step(rng *RNG, limit int) (int, bool) {
	ti, ok := s.st.Sample(rng)
	if !ok {
		return 0, false
	}
	if !s.st.Fire(ti) {
		// Sample only returns transitions with positive exact weight; a
		// refused fire means the weights invariant is broken.
		panic("sim: internal: sampled transition disabled")
	}
	return 1, true
}

// UniformPairs is the classical population-protocol scheduler: two
// distinct agents are drawn uniformly at random and interact if some
// transition consumes exactly that pair (a null step otherwise — the
// step counts, nothing changes). It requires a conservative 2→2
// protocol: every transition consumes and produces exactly two agents.
// Conditioned on a non-null step, its dynamics coincide with Weighted;
// it trades null steps for a cheaper per-step pick.
type UniformPairs struct{}

// Name implements Scheduler.
func (UniformPairs) Name() string { return "uniform" }

// Attach implements Scheduler, rejecting protocols that are not
// conservative 2→2.
func (UniformPairs) Attach(st *State) (Stepper, error) {
	net := st.net
	d := st.p.Space().Len()
	pairTrans := make([][]int, d*d)
	for ti := 0; ti < net.Len(); ti++ {
		t := net.At(ti)
		if t.Pre.Agents() != 2 || t.Post.Agents() != 2 {
			return nil, fmt.Errorf("sim: uniform scheduler needs a conservative 2→2 protocol; transition %q is %d→%d",
				t.Name, t.Pre.Agents(), t.Post.Agents())
		}
		// The precondition is either a + b (a < b) or 2·a.
		a, b := -1, -1
		for _, e := range st.idx.Pre(ti) {
			if e.N == 2 {
				a, b = e.State, e.State
			} else if a < 0 {
				a = e.State
			} else {
				b = e.State
			}
		}
		if b < a {
			a, b = b, a
		}
		key := a*d + b
		pairTrans[key] = append(pairTrans[key], ti)
	}
	return &uniformStepper{st: st, pairTrans: pairTrans, d: d}, nil
}

type uniformStepper struct {
	st        *State
	pairTrans [][]int
	d         int
}

func (s *uniformStepper) Step(rng *RNG, limit int) (int, bool) {
	st := s.st
	// Deadlock is decided from the engine's exact weights so the
	// scheduler does not spin on null steps forever once nothing can
	// ever fire again.
	if !st.ensureLive() {
		return 0, false
	}
	n := st.Agents()
	if n < 2 {
		return 0, false
	}
	// First agent uniformly among n, second among the remaining n−1.
	a := s.locate(rng.Int63n(n), -1)
	b := s.locate(rng.Int63n(n-1), a)
	if b < a {
		a, b = b, a
	}
	cands := s.pairTrans[a*s.d+b]
	var ti int
	switch len(cands) {
	case 0:
		return 1, true // null interaction
	case 1:
		ti = cands[0]
	default:
		ti = cands[rng.Intn(len(cands))]
	}
	if !st.Fire(ti) {
		// The sampled pair exists in the configuration, so a transition
		// consuming exactly that pair is enabled by construction.
		panic("sim: internal: pair-matched transition disabled")
	}
	return 1, true
}

// locate maps an agent ordinal r ∈ [0, n) to its state index, skipping
// one agent of state skip (or none when skip < 0).
func (s *uniformStepper) locate(r int64, skip int) int {
	for i := 0; i < s.d; i++ {
		c := s.st.Count(i)
		if i == skip {
			c--
		}
		if r < c {
			return i
		}
		r -= c
	}
	// Unreachable while counts sum to Agents().
	return s.d - 1
}

// namedScheduler is one row of the scheduler name table.
type namedScheduler struct {
	name string
	// batched schedulers take the batch (MinBatch) and eps (Epsilon)
	// parameters; the others take neither.
	batched bool
	build   func(batch int, eps float64) Scheduler
}

// schedulerTable is the one table of scheduler names.
var schedulerTable = []namedScheduler{
	{"weighted", false, func(int, float64) Scheduler { return Weighted{} }},
	{"uniform", false, func(int, float64) Scheduler { return UniformPairs{} }},
	{"countbatch", true, func(b int, e float64) Scheduler { return CountBatched{Epsilon: e, MinBatch: b} }},
	{"auto", true, func(b int, e float64) Scheduler { return Auto{Epsilon: e, MinBatch: b} }},
}

// SchedulerParams validates the batch and eps parameters of the named
// scheduler ("" means weighted) and returns them with defaults filled
// in. countbatch and auto take both: batch ≥ 0 (0 means
// DefaultMinBatch) and eps in (0, 1) (0 means DefaultEpsilon). The
// other schedulers take neither, so both must be 0.
func SchedulerParams(name string, batch int, eps float64) (int, float64, error) {
	_, batch, eps, err := resolveScheduler(name, batch, eps)
	return batch, eps, err
}

func resolveScheduler(name string, batch int, eps float64) (namedScheduler, int, float64, error) {
	if name == "" {
		name = defaultScheduler
	}
	i := slices.IndexFunc(schedulerTable, func(s namedScheduler) bool { return s.name == name })
	if i < 0 {
		if name == "batched" {
			// Removed: no population size where it beat the others.
			return namedScheduler{}, 0, 0, fmt.Errorf("sim: scheduler %q was removed; use auto (or countbatch)", name)
		}
		names := make([]string, len(schedulerTable))
		for i, s := range schedulerTable {
			names[i] = s.name
		}
		return namedScheduler{}, 0, 0, fmt.Errorf("sim: unknown scheduler %q (have %s)", name, strings.Join(names, ", "))
	}
	s := schedulerTable[i]
	if !s.batched {
		if batch != 0 || eps != 0 {
			return s, 0, 0, fmt.Errorf("sim: batch/eps only apply to countbatch or auto (got %q)", name)
		}
		return s, 0, 0, nil
	}
	if batch < 0 {
		return s, 0, 0, fmt.Errorf("sim: %s batch %d is negative", name, batch)
	}
	if batch == 0 {
		batch = DefaultMinBatch
	}
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if !(eps > 0 && eps < 1) {
		return s, 0, 0, fmt.Errorf("sim: %s eps %v outside (0, 1)", name, eps)
	}
	return s, batch, eps, nil
}
