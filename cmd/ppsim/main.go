// Command ppsim simulates a built-in protocol under a selectable
// randomized scheduler and reports convergence.
//
// Usage:
//
//	ppsim -protocol example42 -param 4 -x 10 -trials 5 -seed 1
//	ppsim -protocol flock -param 8 -x 40 -scheduler uniform
//	ppsim -protocol majority -x 12 -y 8 -scheduler auto -batch 128
//	ppsim -protocol power2 -param 30 -x 1073741824 -scheduler countbatch -steps 100000000000 -patience 0
//
// For the majority protocol, -x sets the A count and -y the B count.
// Schedulers: weighted (exact, default), uniform (classical random
// pairs; conservative 2→2 protocols only), countbatch (count-based
// tau-leaping batches; reaches populations of 10⁹ agents in seconds)
// and auto (hybrid exact↔batch switching); -batch and -eps apply to
// countbatch and auto only. Large-n runs should
// use -patience 0 (run to the absorbing deadlock): a fixed patience is
// satisfied by a single large batch — and, under any scheduler, by the
// long unchanged-output prefix of a big population — long before the
// run is actually stable. Trials run one after another on one
// goroutine; the removed -workers flag fails with an error that says
// so.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/registry"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ppsim", flag.ContinueOnError)
	var (
		protocol  = fs.String("protocol", "example42", fmt.Sprintf("construction: %v", registry.Names()))
		param     = fs.Int64("param", 2, "construction parameter (n or k)")
		x         = fs.Int64("x", 3, "agents in the first input state")
		y         = fs.Int64("y", 0, "agents in the second input state (majority only)")
		seed      = fs.Int64("seed", 1, "PRNG seed")
		steps     = fs.Int("steps", 1_000_000, "max interactions per run")
		patience  = fs.Int("patience", 5_000, "consensus patience (steps without output change)")
		trials    = fs.Int("trials", 1, "number of runs")
		scheduler = fs.String("scheduler", "weighted", "scheduler: weighted, uniform, countbatch or auto")
		batch     = fs.Int("batch", 0, fmt.Sprintf("countbatch/auto aggregation threshold (0 = %d)", sim.DefaultMinBatch))
		eps       = fs.Float64("eps", 0, fmt.Sprintf("countbatch/auto drift tolerance in (0,1) (0 = %g)", sim.DefaultEpsilon))
	)
	// -workers was removed; it stays defined so a command line that
	// still passes it learns why it fails.
	fs.String("workers", "", "removed: ppsim runs on one goroutine")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var removed error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			removed = errors.New("-workers was removed: ppsim runs on one goroutine")
		}
	})
	if removed != nil {
		return removed
	}

	sched, err := sim.SchedulerByName(*scheduler, *batch, *eps)
	if err != nil {
		return err
	}
	p, n, err := registry.Make(*protocol, *param)
	if err != nil {
		return err
	}
	fmt.Println(p)
	fmt.Printf("scheduler: %s\n", sched.Name())

	counts := map[string]int64{}
	initial := p.InitialStates()
	counts[initial[0]] = *x
	if len(initial) > 1 {
		counts[initial[1]] = *y
	}
	input, err := p.Input(counts)
	if err != nil {
		return err
	}
	if n > 0 {
		fmt.Printf("predicate: %s ≥ %d; input x = %d; expected %v\n",
			initial[0], n, *x, *x >= n)
	}

	for tr := 0; tr < *trials; tr++ {
		start := time.Now()
		res, err := sim.Run(p, input, sim.Options{
			Seed:           sim.DeriveSeed(*seed, tr),
			MaxSteps:       *steps,
			StablePatience: *patience,
			Scheduler:      sched,
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		verdict := "no consensus"
		if v, ok := res.ConsensusBool(); ok {
			verdict = fmt.Sprintf("consensus %v", v)
		}
		fmt.Printf("run %d: steps=%d lastChange=%d converged=%v deadlocked=%v output=%v (%s) in %v\n  final: %v\n",
			tr, res.Steps, res.LastChange, res.Converged, res.Deadlocked, res.Output, verdict, elapsed.Round(time.Microsecond), res.Final)
	}
	return nil
}
