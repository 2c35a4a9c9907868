package verify

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/petri"
)

// maxXMargin is how far past the threshold n an omitted MaxX reaches.
const maxXMargin = 3

// Query is one bounded verification as ppverify and /v1/verify ask
// for it: every input x ∈ [0, MaxX] of a counting protocol, each
// closure capped at Budget configurations (the resource the daemon's
// admission control prices). key.VerifyParams is an alias of it.
type Query struct {
	MaxX   int64 `json:"max_x"`
	Budget int   `json:"budget"`
}

// Flags defines ppverify's flags on fs, one per member of q, bound to
// it and set to the member's default.
func (q *Query) Flags(fs *flag.FlagSet) {
	fs.Int64Var(&q.MaxX, "maxx", 0, fmt.Sprintf("max input size (0 = n+%d)", maxXMargin))
	fs.IntVar(&q.Budget, "budget", petri.DefaultMaxConfigs, "closure budget (configurations)")
}

// Normalize validates q for a protocol deciding x ≥ n (n = 0, no
// counting predicate, is rejected) and fills its zero members with
// their defaults, as /v1/verify reads omitted members: MaxX n+3,
// Budget petri.DefaultMaxConfigs. It is idempotent.
func (q *Query) Normalize(n int64) error {
	if n <= 0 {
		return errors.New("verify: the protocol decides no counting predicate; verify handles counting protocols")
	}
	if q.MaxX == 0 {
		q.MaxX = n + maxXMargin
	}
	if q.Budget == 0 {
		q.Budget = petri.DefaultMaxConfigs
	}
	if q.MaxX < 0 || q.Budget < 0 {
		return fmt.Errorf("verify: negative max_x %d or budget %d", q.MaxX, q.Budget)
	}
	return nil
}

// QueryResult is the /v1/verify result document: the per-input
// reports collapsed to the verdict a client acts on. Failures are the
// failing inputs' x; Reports, in x order, are for ppverify to print.
type QueryResult struct {
	Predicate  string   `json:"predicate"`
	MaxX       int64    `json:"max_x"`
	Inputs     int      `json:"inputs"`
	OK         bool     `json:"ok"`
	Failures   []int    `json:"failures,omitempty"`
	MaxConfigs int      `json:"max_configs"`
	Reports    []Report `json:"-"`
}

// Eval applies Normalize and verifies p, whose input state is input
// and whose counting threshold is n, on every x ∈ [0, MaxX] with an
// input pool of workers workers (0 = GOMAXPROCS): the one evaluation
// ppverify prints and /v1/verify serves. ctx reaches every closure
// walk.
func (q Query) Eval(ctx context.Context, p *core.Protocol, input string, n int64, workers int) (*QueryResult, error) {
	if err := q.Normalize(n); err != nil {
		return nil, err
	}
	if err := CheckCounting(p, input); err != nil {
		return nil, err
	}
	rr, err := Range(ctx, p, CountingPredicate(input, n), 0, q.MaxX, petri.Budget{MaxConfigs: q.Budget}, workers)
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Predicate:  fmt.Sprintf("%s >= %d", input, n),
		MaxX:       q.MaxX,
		Inputs:     len(rr.Reports),
		OK:         rr.OK(),
		Failures:   rr.Failures,
		MaxConfigs: rr.MaxConfigs,
		Reports:    rr.Reports,
	}, nil
}
