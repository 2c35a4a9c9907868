package sim

import (
	"context"
	"errors"

	"repro/internal/core"
)

// SweepPoint is one population size's aggregated convergence result.
type SweepPoint struct {
	X     int64 `json:"x"`
	Stats Stats `json:"stats"`
}

// Sweep runs every trial of every population size in xs and reports
// per-size statistics: SweepRange over the full trial range.
func Sweep(ctx context.Context, p *core.Protocol, inputState string, xs []int64, expected func(x int64) bool, trials int, opts Options) ([]SweepPoint, error) {
	if trials <= 0 {
		return nil, errors.New("sim: trials must be positive")
	}
	return SweepRange(ctx, p, inputState, xs, expected, 0, trials, opts)
}

// SweepRange runs the trial range [trialLo, trialHi) of each population
// size in xs and reports per-size partial statistics. The expected
// predicate value for each x is computed by expected. Each size's base
// seed is derived from (opts.Seed, x) alone — independent of which
// sizes and trial ranges this call covers — so a sweep sharded across
// processes by size and/or trial block produces partial SweepPoints
// that merge into exactly the single-process Sweep result.
//
// It is one SweepCells call with one cell per size: every trial of
// every size runs on one pool of opts.Workers (default GOMAXPROCS)
// workers, so sweeps with few trials per point still use every core.
// Results are ordered like xs and deterministic in opts.Seed
// regardless of scheduling. Cancelling ctx stops all workers promptly
// and returns ctx.Err().
func SweepRange(ctx context.Context, p *core.Protocol, inputState string, xs []int64, expected func(x int64) bool, trialLo, trialHi int, opts Options) ([]SweepPoint, error) {
	return SweepRangeSink(ctx, p, inputState, xs, expected, trialLo, trialHi, opts, nil)
}

// SweepRangeSink is SweepRange with a streaming seam: sink (may be
// nil) is called once per point the moment that point and every point
// before it in xs have completed, with the same (x, trialLo, trialHi,
// Stats) the returned slice will carry. Calls are serialized and
// arrive in the order of xs.
func SweepRangeSink(ctx context.Context, p *core.Protocol, inputState string, xs []int64, expected func(x int64) bool, trialLo, trialHi int, opts Options, sink CellSink) ([]SweepPoint, error) {
	if len(xs) == 0 {
		return nil, errors.New("sim: empty sweep")
	}
	cells := make([]Cell, len(xs))
	for i, x := range xs {
		cells[i] = Cell{X: x, TrialLo: trialLo, TrialHi: trialHi}
	}
	out := make([]SweepPoint, len(xs))
	err := SweepCells(ctx, p, inputState, cells, expected, opts, func(i int, st Stats) error {
		out[i] = SweepPoint{X: xs[i], Stats: st}
		if sink != nil {
			sink(xs[i], trialLo, trialHi, st)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
