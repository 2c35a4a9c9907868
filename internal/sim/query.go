package sim

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/core"
)

// The defaults of omitted simulate and run members, read by ppsim's
// flags and by Normalize; a zero MaxSteps means defaultMaxSteps.
const (
	defaultSeed      = 1
	defaultScheduler = "weighted"
	defaultTrials    = 1
)

// RunParams are the run members simulate and sweep queries share,
// named as in their /v1 request bodies. Embedded, they sit at the
// level of the query that embeds them.
type RunParams struct {
	// Seed is the base seed; per-trial seeds derive positionally.
	Seed int64 `json:"seed"`
	// MaxSteps caps each run; Patience is the consensus patience in
	// steps, 0 running to MaxSteps or a deadlock.
	MaxSteps int `json:"max_steps"`
	Patience int `json:"patience"`
	// Scheduler names a row of the scheduler table. Batch and Eps are
	// the countbatch/auto parameters; the other schedulers take none.
	Scheduler string  `json:"scheduler"`
	Batch     int     `json:"batch,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
}

// Normalize validates r and fills its zero members with their
// defaults, the scheduler's batch and eps included (SchedulerParams),
// so a defaulted run and its spelled-out form are equal. It is
// idempotent.
func (r *RunParams) Normalize() error {
	if r.Seed == 0 {
		r.Seed = defaultSeed
	}
	if r.MaxSteps == 0 {
		r.MaxSteps = defaultMaxSteps
	}
	if r.MaxSteps < 0 || r.Patience < 0 {
		return fmt.Errorf("sim: negative step budget (max_steps=%d patience=%d)", r.MaxSteps, r.Patience)
	}
	if r.Scheduler == "" {
		r.Scheduler = defaultScheduler
	}
	var err error
	r.Batch, r.Eps, err = SchedulerParams(r.Scheduler, r.Batch, r.Eps)
	return err
}

// Options resolves r's scheduler, with batch and eps under
// SchedulerParams' rule, into the options of its runs on a trial pool
// of workers workers (0 = GOMAXPROCS).
func (r RunParams) Options(workers int) (Options, error) {
	s, batch, eps, err := resolveScheduler(r.Scheduler, r.Batch, r.Eps)
	if err != nil {
		return Options{}, err
	}
	return Options{Seed: r.Seed, MaxSteps: r.MaxSteps, StablePatience: r.Patience, Scheduler: s.build(batch, eps), Workers: workers}, nil
}

// Query is one simulation as ppsim and /v1/simulate ask for it: Trials
// runs from X agents in the input state and Y in the second initial
// state (two-input protocols like majority). key.SimulateParams is an
// alias of it.
type Query struct {
	X      int64 `json:"x"`
	Y      int64 `json:"y,omitempty"`
	Trials int   `json:"trials"`
	RunParams
}

// Flags defines ppsim's flags on fs, one per member of q, bound to it
// and set to the member's default.
func (q *Query) Flags(fs *flag.FlagSet) {
	fs.Int64Var(&q.X, "x", 0, "agents in the input state")
	fs.Int64Var(&q.Y, "y", 0, "agents in the second initial state (majority only)")
	fs.IntVar(&q.Trials, "trials", defaultTrials, "number of runs")
	fs.Int64Var(&q.Seed, "seed", defaultSeed, "PRNG seed")
	fs.IntVar(&q.MaxSteps, "steps", defaultMaxSteps, "max interactions per run")
	fs.IntVar(&q.Patience, "patience", 0, "consensus patience: steps without output change (0 = run to -steps or a deadlock)")
	fs.StringVar(&q.Scheduler, "scheduler", defaultScheduler, "scheduler: weighted, uniform, countbatch or auto")
	fs.IntVar(&q.Batch, "batch", 0, fmt.Sprintf("countbatch/auto aggregation threshold (0 = %d)", DefaultMinBatch))
	fs.Float64Var(&q.Eps, "eps", 0, fmt.Sprintf("countbatch/auto drift tolerance in (0,1) (0 = %g)", DefaultEpsilon))
}

// Normalize validates q and fills its zero members with their
// defaults, as /v1/simulate reads omitted members. It is idempotent.
func (q *Query) Normalize() error {
	if q.X < 0 || q.Y < 0 {
		return fmt.Errorf("sim: negative input counts x=%d y=%d", q.X, q.Y)
	}
	if q.Trials == 0 {
		q.Trials = defaultTrials
	}
	if q.Trials < 0 {
		return fmt.Errorf("sim: negative trials %d", q.Trials)
	}
	return q.RunParams.Normalize()
}

// QueryResult is the /v1/simulate result document. MeanSteps and the
// rates are derived from Stats, so they cannot disagree with it.
type QueryResult struct {
	Predicate     string  `json:"predicate"`
	Expected      bool    `json:"expected"`
	Stats         Stats   `json:"stats"`
	MeanSteps     float64 `json:"mean_steps"`
	ConvergedRate float64 `json:"converged_rate"`
	CorrectRate   float64 `json:"correct_rate"`
}

// Eval applies Normalize and runs q on p, whose input state is input
// and whose counting threshold is n (0: p decides input > the second
// initial state), with workers trial-pool workers (0 = GOMAXPROCS):
// the one evaluation ppsim prints and /v1/simulate serves.
func (q Query) Eval(ctx context.Context, p *core.Protocol, input string, n int64, workers int) (*QueryResult, error) {
	if err := q.Normalize(); err != nil {
		return nil, err
	}
	opts, err := q.Options(workers)
	if err != nil {
		return nil, err
	}
	res := QueryResult{Predicate: fmt.Sprintf("%s >= %d", input, n), Expected: q.X >= n}
	counts := map[string]int64{input: q.X}
	for _, s := range p.InitialStates() {
		if s != input {
			counts[s] = q.Y
			if n == 0 {
				res.Predicate, res.Expected = fmt.Sprintf("%s > %s", input, s), q.X > q.Y
			}
			break
		}
	}
	in, err := p.Input(counts)
	if err != nil {
		return nil, err
	}
	stats, err := RunMany(ctx, p, in, res.Expected, q.Trials, opts)
	if err != nil {
		return nil, err
	}
	res.Stats = *stats
	res.MeanSteps = stats.MeanSteps()
	res.ConvergedRate = float64(stats.Converged) / float64(stats.Trials)
	res.CorrectRate = float64(stats.Correct) / float64(stats.Trials)
	return &res, nil
}
