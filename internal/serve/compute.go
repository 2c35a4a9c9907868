package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/petri"
	"repro/internal/registry"
	"repro/internal/serve/key"
	"repro/internal/sim"
	"repro/internal/verify"
)

// compute evaluates one normalized query to its result document — the
// json.RawMessage sealed into the store artifact. It runs only on a
// cache miss, inside the store's singleflight, with the daemon's
// worker budget; everything request-dependent is already pinned in
// the query (and hence in the cache key), so the same query computes
// the same document on any host.
func (s *Server) compute(ctx context.Context, q *key.Query) (json.RawMessage, error) {
	switch q.Kind {
	case key.KindSimulate:
		return s.computeSimulate(ctx, q)
	case key.KindVerify:
		return s.computeVerify(ctx, q)
	case key.KindBounds:
		res, err := q.Bounds.Eval()
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	default:
		return nil, fmt.Errorf("serve: no compute for kind %q", q.Kind)
	}
}

// SimulateResult is the /v1/simulate result document.
type SimulateResult struct {
	Predicate string    `json:"predicate"`
	Expected  bool      `json:"expected"`
	Stats     sim.Stats `json:"stats"`
	// MeanSteps and ConvergedRate summarize Stats for human readers;
	// they are derived, so recomputation cannot disagree with Stats.
	MeanSteps     float64 `json:"mean_steps"`
	ConvergedRate float64 `json:"converged_rate"`
	CorrectRate   float64 `json:"correct_rate"`
}

func (s *Server) computeSimulate(ctx context.Context, q *key.Query) (json.RawMessage, error) {
	sp := q.Simulate
	p, n, err := registry.Make(q.Spec.Protocol, q.Spec.Param)
	if err != nil {
		return nil, err
	}
	sched, err := sim.SchedulerByName(sp.Scheduler, sp.Batch, sp.Eps)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	initial := p.InitialStates()
	counts[initial[0]] = sp.X
	if len(initial) > 1 {
		counts[initial[1]] = sp.Y
	}
	input, err := p.Input(counts)
	if err != nil {
		return nil, err
	}
	var res SimulateResult
	if n > 0 {
		res.Predicate = fmt.Sprintf("%s >= %d", initial[0], n)
		res.Expected = sp.X >= n
	} else {
		res.Predicate = fmt.Sprintf("%s > %s", initial[0], initial[1])
		res.Expected = sp.X > sp.Y
	}
	stats, err := sim.RunMany(ctx, p, input, res.Expected, sp.Trials, sim.Options{
		Seed:           sp.Seed,
		MaxSteps:       sp.MaxSteps,
		StablePatience: sp.Patience,
		Scheduler:      sched,
		Workers:        s.workers,
	})
	if err != nil {
		return nil, err
	}
	res.Stats = *stats
	if stats.Trials > 0 {
		res.MeanSteps = float64(stats.SumSteps) / float64(stats.Trials)
		res.ConvergedRate = float64(stats.Converged) / float64(stats.Trials)
		res.CorrectRate = float64(stats.Correct) / float64(stats.Trials)
	}
	return json.Marshal(res)
}

// VerifyResult is the /v1/verify result document: the per-input
// reports collapsed to the verdict surface a client acts on.
type VerifyResult struct {
	Predicate  string `json:"predicate"`
	MaxX       int64  `json:"max_x"`
	Inputs     int    `json:"inputs"`
	OK         bool   `json:"ok"`
	Failures   []int  `json:"failures,omitempty"`
	MaxConfigs int    `json:"max_configs"`
}

func (s *Server) computeVerify(ctx context.Context, q *key.Query) (json.RawMessage, error) {
	p, n, err := registry.Make(q.Spec.Protocol, q.Spec.Param)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("serve: %s is not a counting protocol", q.Spec.Protocol)
	}
	state := p.InitialStates()[0]
	if err := verify.CheckCounting(p, state); err != nil {
		return nil, err
	}
	// The request's context reaches the closure walk, so an expired
	// deadline stops the BFS mid-level instead of holding the
	// admission tokens until the budget drains.
	rr, err := verify.Range(ctx, p, verify.CountingPredicate(state, n), 0, q.Verify.MaxX,
		petri.Budget{MaxConfigs: q.Verify.Budget}, s.workers)
	if err != nil {
		return nil, err
	}
	res := VerifyResult{
		Predicate:  fmt.Sprintf("%s >= %d", state, n),
		MaxX:       q.Verify.MaxX,
		Inputs:     len(rr.Reports),
		OK:         rr.OK(),
		Failures:   rr.Failures,
		MaxConfigs: rr.MaxConfigs,
	}
	return json.Marshal(res)
}
