// Package verify decides stable computation on bounded instances: given
// a protocol, an input and the expected predicate value, it builds the
// exact reachability closure of the initial configuration and checks
// the Section 2 condition
//
//	∀α: ρ_L + ρ|_P —T*→ α  ⟹  ∃β ∈ S_{φ(ρ)}: α —T*→ β
//
// by SCC/reachability analysis of the closure. The general problem is
// equivalent to Petri-net reachability and therefore
// Ackermannian-complete ([9, 10] + [8, 11]); this verifier is exact but
// bounded, and reports budget exhaustion as an error instead of
// guessing.
//
// Results are deterministic regardless of parallelism: each input's
// check runs both reachability passes over one shared reverse-CSR view
// of the closure (zero-copy from petri, see that package's ownership
// invariants), and Range runs independent inputs on one pool shaped
// like the simulator's trial pool — the caller plus helpers claiming
// inputs through one atomic index — and collects reports in
// enumeration order, so tables and first-error semantics never depend
// on scheduling.
//
// Every check runs in a workspace taken from a package-private
// sync.Pool for the call — one per Range worker, the caller's
// included — and put back at its end: the last closure (rebuilt in
// place by petri.Net.ReachReusing), the reverse CSR, the BFS queue,
// the bad and stable id lists and the visit arrays. A workspace keeps
// the size of the largest input it served, so a job settles to no
// allocation beyond what its reports keep.
// Reports copy out their input and counterexample; nothing returned
// aliases pooled storage.
package verify

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/petri"
)

// Predicate is a predicate φ: ℕ^I → {0, 1} evaluated on input
// configurations. Range calls it from concurrent workers, so it must
// be safe for concurrent use (pure functions of the input, like
// CountingPredicate, trivially are).
type Predicate func(input conf.Config) bool

// CountingPredicate returns φ_{i≥n} for the named initial state.
func CountingPredicate(state string, n int64) Predicate {
	return func(input conf.Config) bool {
		return input.GetName(state) >= n
	}
}

// Report is the outcome of one input's verification.
type Report struct {
	// Input is the verified input configuration ρ.
	Input conf.Config
	// Expected is φ(ρ).
	Expected bool
	// OK reports that the stable-computation condition holds for this
	// input.
	OK bool
	// Configs is the size of the reachability closure.
	Configs int
	// StableConfigs is the number of closure members in S_{φ(ρ)}.
	StableConfigs int
	// Counterexample, when OK is false, is a reachable configuration
	// from which no φ(ρ)-output-stable configuration is reachable.
	Counterexample *conf.Config
}

// workspace is the storage one check builds in and the next reuses.
// Its arrays grow to the largest input served, so a job whose inputs
// grow with x reallocates only until it has met its largest one.
type workspace struct {
	rs           *petri.ReachSet
	radj         graph.CSR
	cursor       []int32
	queue        []int32
	bad, stable  []int
	reachesBad   []bool
	canStabilize []bool
}

// workspaces recycles workspaces across Range calls. A
// workspace never leaves this package: check copies out everything a
// report keeps, so no result aliases pooled storage.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// check verifies stable computation for one input, writing into
// report under ctx, with the closure and every intermediate built in
// the storage of ws. Both reachability passes (who can reach a bad
// node; who can reach a stable node) run over the closure's shared
// CSR edge structure, and the reverse graph is built once. Nothing in report
// aliases ws; report.Input is input itself, which the caller hands
// over.
func check(ctx context.Context, p *core.Protocol, input conf.Config, pred Predicate, budget petri.Budget, ws *workspace, report *Report) error {
	expected := pred(input)
	initial := p.InitialConfig(input)
	rs, err := p.Net().ReachReusing(ctx, ws.rs, initial, budget)
	ws.rs = rs
	if err != nil {
		return fmt.Errorf("verify %v: %w", input, err)
	}
	ws.radj, ws.cursor = rs.CSR().ReverseInto(ws.radj, ws.cursor)

	// A node is "bad" for output j when its own output set already
	// violates S_j membership; a node is in S_j iff it cannot reach a
	// bad node (the closure is forward-closed, so this is exact).
	ws.bad = ws.bad[:0]
	for id := 0; id < rs.Len(); id++ {
		out := p.OutputOf(rs.Config(id))
		violates := out != core.Set1
		if !expected {
			violates = out&(core.SetStar|core.Set1) != 0
		}
		if violates {
			ws.bad = append(ws.bad, id)
		}
	}
	ws.reachesBad, ws.queue = graph.ReachableFromInto(ws.radj, ws.bad, ws.reachesBad, ws.queue)
	ws.stable = ws.stable[:0]
	for id := 0; id < rs.Len(); id++ {
		if !ws.reachesBad[id] {
			ws.stable = append(ws.stable, id)
		}
	}
	*report = Report{
		Input:         input,
		Expected:      expected,
		Configs:       rs.Len(),
		StableConfigs: len(ws.stable),
	}
	if len(ws.stable) == 0 {
		report.OK = false
		c := rs.Config(0).Clone() // detach from the closure arena
		report.Counterexample = &c
		return nil
	}
	ws.canStabilize, ws.queue = graph.ReachableFromInto(ws.radj, ws.stable, ws.canStabilize, ws.queue)
	report.OK = true
	for id := 0; id < rs.Len(); id++ {
		if !ws.canStabilize[id] {
			report.OK = false
			c := rs.Config(id).Clone() // detach from the closure arena
			report.Counterexample = &c
			break
		}
	}
	return nil
}

// RangeResult aggregates the verification of many inputs.
type RangeResult struct {
	Reports []Report
	// Failures indexes the reports that are not OK.
	Failures []int
	// MaxConfigs is the largest closure encountered.
	MaxConfigs int
}

// OK reports whether every input verified.
func (r *RangeResult) OK() bool { return len(r.Failures) == 0 }

// FirstFailure returns the first failing report, or nil.
func (r *RangeResult) FirstFailure() *Report {
	if len(r.Failures) == 0 {
		return nil
	}
	return &r.Reports[r.Failures[0]]
}

// Range verifies every input with total agent count in [minTotal,
// maxTotal] over the protocol's initial states: the bounded analogue of
// the well-specification problem for the given predicate.
//
// Inputs are independent, so they run on one pool of min(workers,
// inputs) workers (0 = GOMAXPROCS), the calling goroutine being one of
// them: workers claim inputs in enumeration order through one atomic
// index, and each input's closure is explored sequentially. Every
// worker builds each closure in the storage of its previous one;
// reports are detached copies written by index. The first error by
// enumeration order is returned, and inputs past an error are skipped,
// so results and errors are deterministic regardless of scheduling.
//
// Once ctx is done every worker's closure stops at its next
// cancellation checkpoint, so Range returns an error wrapping
// petri.ErrCancelled and no helper outlives the call.
func Range(ctx context.Context, p *core.Protocol, pred Predicate, minTotal, maxTotal int64, budget petri.Budget, workers int) (*RangeResult, error) {
	if minTotal < 0 || maxTotal < minTotal {
		return nil, errors.New("verify: invalid total range")
	}
	inputSpace, err := conf.NewSpace(p.InitialStates()...)
	if err != nil {
		return nil, err
	}
	// Each enumerated input is embedded into the protocol's space, a
	// fresh copy the input's report keeps.
	var inputs []conf.Config
	var embedErr error
	for total := minTotal; total <= maxTotal; total++ {
		if err := conf.EnumerateTotal(inputSpace, total, func(c conf.Config) bool {
			var embedded conf.Config
			embedded, embedErr = c.Embed(p.Space())
			inputs = append(inputs, embedded)
			return embedErr == nil
		}); err != nil {
			return nil, err
		}
		if embedErr != nil {
			return nil, embedErr
		}
	}
	reports := make([]Report, len(inputs))
	errs := make([]error, len(inputs))
	// minFailed is the smallest input index that errored so far. Inputs
	// are claimed in index order, so a worker whose claim lies above it
	// stops: every input below the first failure is still verified, and
	// the first-by-index error below is exactly the sequential one.
	var next, minFailed atomic.Int64
	minFailed.Store(int64(len(inputs)))
	work := func() {
		ws := workspaces.Get().(*workspace)
		defer workspaces.Put(ws)
		for {
			i := next.Add(1) - 1
			if i >= int64(len(inputs)) || i > minFailed.Load() {
				return
			}
			err := check(ctx, p, inputs[i], pred, budget, ws, &reports[i])
			if err == nil {
				continue
			}
			errs[i] = err
			for {
				cur := minFailed.Load()
				if i >= cur || minFailed.CompareAndSwap(cur, i) {
					break
				}
			}
		}
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(inputs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// An input is skipped only above a failed one, so the first error
	// by index comes before every skipped report.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	result := &RangeResult{Reports: reports}
	for i, report := range reports {
		result.MaxConfigs = max(result.MaxConfigs, report.Configs)
		if !report.OK {
			result.Failures = append(result.Failures, i)
		}
	}
	return result, nil
}

// Counting verifies a protocol against φ_{i≥n} for all input sizes
// x ∈ [0, maxX]: the standard acceptance test for the counting
// constructions of Section 4. It runs on every core and is never
// cancelled; CheckCounting and Range make the same call under a
// context and a worker count.
func Counting(p *core.Protocol, state string, n int64, maxX int64, budget petri.Budget) (*RangeResult, error) {
	if err := CheckCounting(p, state); err != nil {
		return nil, err
	}
	return Range(context.Background(), p, CountingPredicate(state, n), 0, maxX, budget, 0)
}

// CheckCounting reports an error unless the protocol's initial states
// are exactly {state}, the shape φ_{state≥n} is defined over.
func CheckCounting(p *core.Protocol, state string) error {
	if len(p.InitialStates()) != 1 || p.InitialStates()[0] != state {
		return fmt.Errorf("verify: counting protocols must have I = {%s}", state)
	}
	return nil
}
