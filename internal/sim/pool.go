package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/conf"
	"repro/internal/core"
)

// Cell is one unit of a sweep: the trials with absolute indices
// [TrialLo, TrialHi) at population size X.
type Cell struct {
	X       int64 `json:"x"`
	TrialLo int   `json:"trial_lo"`
	TrialHi int   `json:"trial_hi"`
}

// SweepCells runs every cell on one trial pool and hands each cell's
// Stats to deliver, once per cell and in the order of cells. A cell's
// trials are seeded positionally — trial t at size x runs on
// DeriveSeed(DeriveSeedK(opts.Seed, x), t) — so the Stats of a cell
// are bit-identical to the same trials of any other call, whatever
// the cell list, worker count or scheduling. deliver calls are
// serialized but may come from any worker goroutine; a cell is
// delivered as soon as it and every cell before it are complete. An
// error from deliver cancels the remaining trials and is returned.
// Cancelling ctx stops the workers promptly — mid-run, not merely
// between trials — and returns ctx.Err().
func SweepCells(ctx context.Context, p *core.Protocol, inputState string, cells []Cell, expected func(x int64) bool, opts Options, deliver func(i int, stats Stats) error) error {
	jobs := make([]poolCell, len(cells))
	initial := make(map[int64]conf.Config)
	for i, c := range cells {
		init, ok := initial[c.X]
		if !ok {
			input, err := p.Input(map[string]int64{inputState: c.X})
			if err != nil {
				return fmt.Errorf("sweep x=%d: %w", c.X, err)
			}
			init = p.InitialConfig(input)
			initial[c.X] = init
		}
		jobs[i] = poolCell{
			initial:  init,
			seed:     DeriveSeedK(opts.Seed, c.X),
			expected: expected(c.X),
			lo:       c.TrialLo,
			hi:       c.TrialHi,
		}
	}
	return runCells(ctx, p, jobs, opts, deliver)
}

// poolCell is one cell as the pool runs it: trials [lo, hi) from one
// initial configuration, trial t seeded with DeriveSeed(seed, t).
type poolCell struct {
	initial  conf.Config
	seed     int64
	expected bool
	lo, hi   int
}

// runCells is the package's one trial pool, behind RunMany and
// SweepCells. It keeps min(opts.Workers or GOMAXPROCS, trials) workers for
// the whole call, the calling goroutine being one of them. Workers
// claim trials in plan order — cell by cell, through one atomic index
// — and fold each finished trial straight into its cell's Stats; no
// per-trial result is kept. Every worker builds its engine State and
// Stepper on its own goroutine and reuses them across trials, so the
// hot arrays of different workers come from different allocation
// caches instead of sharing cache lines.
//
// Stats accumulators are exact and order-free, so a cell's Stats do
// not depend on which worker ran which trial. Completed cells are
// delivered in plan order by whichever worker completes the head of
// the queue, one delivery at a time.
func runCells(ctx context.Context, p *core.Protocol, cells []poolCell, opts Options, deliver func(i int, stats Stats) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cells) == 0 {
		return errors.New("sim: no cells to run")
	}
	ends := make([]int, len(cells)) // ends[i]: plan position one past cell i's last trial
	left := make([]int, len(cells)) // trials of cell i not yet finished
	total := 0
	for i, c := range cells {
		if c.lo < 0 || c.hi <= c.lo {
			return errors.New("sim: need 0 <= trialLo < trialHi")
		}
		left[i] = c.hi - c.lo
		total += left[i]
		ends[i] = total
	}
	sched := opts.scheduler()
	// Attach the calling goroutine's engine first: it validates the
	// scheduler/protocol pairing before any worker starts, so every
	// caller gets the same deterministic error.
	st0 := NewState(p)
	stepper0, err := sched.Attach(st0)
	if err != nil {
		return err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, total)

	run, cancel := context.WithCancel(ctx)
	defer cancel()
	done := run.Done()
	var (
		next       atomic.Int64
		mu         sync.Mutex
		stats      = make([]Stats, len(cells))
		head       int   // first undelivered cell
		delivering bool  // a worker is running the delivery loop
		failed     error // deliver's first error
	)
	finish := func(ci int, res *Result) {
		mu.Lock()
		defer mu.Unlock()
		stats[ci].Observe(res, cells[ci].expected)
		left[ci]--
		if delivering {
			return // the delivering worker re-checks the head before it stops
		}
		delivering = true
		for failed == nil && head < len(cells) && left[head] == 0 {
			i, st := head, stats[head]
			head++
			mu.Unlock()
			err := deliver(i, st)
			mu.Lock()
			if err != nil {
				failed = err
				cancel()
			}
		}
		delivering = false
	}
	work := func(st *State, stepper Stepper) {
		rng := NewRNG(0)
		ci, base := 0, 0 // the claimed trial's cell and that cell's first plan position
		for {
			k := int(next.Add(1) - 1)
			if k >= total {
				return
			}
			select {
			case <-done:
				return
			default:
			}
			for k >= ends[ci] {
				base = ends[ci]
				ci++
			}
			c := &cells[ci]
			st.resetFrom(c.initial)
			rng.Seed(DeriveSeed(c.seed, c.lo+k-base))
			res, ok := runLoop(done, st, stepper, rng, opts)
			if !ok {
				return
			}
			finish(ci, &res)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := NewState(p)
			stepper, err := sched.Attach(st)
			if err != nil {
				// Unreachable: Attach succeeded above on an identical state.
				panic(err)
			}
			work(st, stepper)
		}()
	}
	work(st0, stepper0)
	wg.Wait()
	if failed != nil {
		return failed
	}
	return ctx.Err()
}
