// Command ppsim simulates a built-in protocol under a selectable
// randomized scheduler and reports convergence.
//
// Usage:
//
//	ppsim -protocol example42 -param 4 -x 10 -trials 5 -seed 1
//	ppsim -protocol flock -param 8 -x 40 -scheduler uniform
//	ppsim -protocol majority -x 12 -y 8 -scheduler auto -batch 128
//	ppsim -protocol power2 -param 30 -x 1073741824 -scheduler countbatch -steps 100000000000
//
// A run of ppsim is a /v1/simulate query: the flags and their
// defaults are sim.Query's, the input state is the protocol's registry
// entry's (for majority, -x sets the A count and -y the B count), and
// ppsim prints the protocol, the query as a /v1/simulate request body,
// and one "member: value" line per member of the document
// sim.Query.Eval returns, the one /v1/simulate serves (stats members
// flattened).
//
// Schedulers: weighted (exact, default), uniform (classical random
// pairs; conservative 2→2 protocols only), countbatch (count-based
// tau-leaping batches; reaches populations of 10⁹ agents in seconds)
// and auto (hybrid exact↔batch switching); -batch and -eps apply to
// countbatch and auto only. The default -patience 0 runs each trial to
// -steps or to the absorbing deadlock; large-n runs should keep it: a
// fixed patience is satisfied by a single large batch — and, under any
// scheduler, by the long unchanged-output prefix of a big population —
// long before the run is actually stable. Trials run on the trial pool
// with one worker, the calling goroutine, trial t seeded with
// sim.DeriveSeed(-seed, t); the removed -workers flag fails with an
// error that says so.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/registry"
	"repro/internal/serve/key"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppsim", flag.ContinueOnError)
	protocol := fs.String("protocol", "example42", fmt.Sprintf("construction: %v", registry.Names()))
	param := fs.Int64("param", 2, "construction parameter (n or k)")
	var q sim.Query
	q.Flags(fs)
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
	if fs.Lookup("workers").Value.String() != "" {
		return errors.New("-workers was removed: ppsim runs on one goroutine")
	}
	if err := q.Normalize(); err != nil {
		return err
	}
	e, err := registry.Lookup(*protocol)
	if err != nil {
		return err
	}
	p, n, err := registry.Make(*protocol, *param)
	if err != nil {
		return err
	}
	res, err := q.Eval(context.Background(), p, e.Input, n, 1)
	if err != nil {
		return err
	}
	// A struct of strings and numbers always marshals.
	query, _ := json.Marshal(struct {
		Spec key.Spec `json:"spec"`
		sim.Query
	}{key.Spec{Protocol: *protocol, Param: *param}, q})
	fmt.Fprintf(out, "%v\nquery: %s\npredicate: %s\nexpected: %v\n", p, query, res.Predicate, res.Expected)
	st := res.Stats
	fmt.Fprintf(out, "trials: %d\nconverged: %d\ncorrect: %d\n", st.Trials, st.Converged, st.Correct)
	fmt.Fprintf(out, "sum_steps: %d\nsum_steps_sq_hi: %d\nsum_steps_sq_lo: %d\n", st.SumSteps, st.SumStepsSqHi, st.SumStepsSqLo)
	fmt.Fprintf(out, "min_steps: %d\nmax_steps: %d\nsum_last_change: %d\n", st.MinSteps, st.MaxSteps, st.SumLastChange)
	fmt.Fprintf(out, "mean_steps: %v\nconverged_rate: %v\ncorrect_rate: %v\n", res.MeanSteps, res.ConvergedRate, res.CorrectRate)
	return nil
}
