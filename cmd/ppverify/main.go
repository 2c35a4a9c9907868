// Command ppverify exhaustively verifies that a built-in counting
// protocol stably computes its predicate for all inputs up to a bound,
// printing per-input closure statistics.
//
// Usage:
//
//	ppverify -protocol example42 -param 3 -maxx 6
//	ppverify -protocol flock -param 6 -maxx 12 -workers 8
//
// Verification parallelizes across inputs only: -workers (default all
// cores) sizes the input pool, the calling goroutine among its
// workers, and each input's closure is explored sequentially in RAM,
// in the storage of the worker's previous closure. Results are
// byte-identical for any worker count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/petri"
	"repro/internal/registry"
	"repro/internal/verify"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppverify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ppverify", flag.ContinueOnError)
	var (
		protocol   = fs.String("protocol", "example42", fmt.Sprintf("construction: %v", registry.Names()))
		param      = fs.Int64("param", 2, "construction parameter (n or k)")
		maxX       = fs.Int64("maxx", -1, "max input size (default n+3)")
		maxConfigs = fs.Int("budget", 1<<20, "closure budget (configurations)")
		workers    = fs.Int("workers", 0, "size of the input pool: inputs verified at once, each closure explored sequentially (0 = all cores); results are identical for any value")
	)
	// The out-of-core closure flags were removed; they stay defined so
	// a command line that still passes them learns why it fails.
	fs.String("spill-dir", "", "removed: closures are always explored in RAM")
	fs.String("spill-mb", "", "removed: closures are always explored in RAM")
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
		if strings.HasPrefix(f.Name, "spill-") {
			removed = fmt.Errorf("-%s was removed: closures are always explored in RAM", f.Name)
		}
	})
	if removed != nil {
		return removed
	}

	p, n, err := registry.Make(*protocol, *param)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%s does not decide a counting predicate; ppverify handles counting protocols", *protocol)
	}
	limit := *maxX
	if limit < 0 {
		limit = n + 3
	}
	fmt.Println(p)
	fmt.Printf("verifying φ_{i≥%d} for x ∈ [0, %d]\n", n, limit)

	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative (got %d)", *workers)
	}
	if err := verify.CheckCounting(p, "i"); err != nil {
		return err
	}
	res, err := verify.Range(context.Background(), p, verify.CountingPredicate("i", n), 0, limit,
		petri.Budget{MaxConfigs: *maxConfigs}, *workers)
	if err != nil {
		return err
	}
	for _, r := range res.Reports {
		status := "OK"
		if !r.OK {
			status = fmt.Sprintf("FAIL (counterexample %v)", r.Counterexample)
		}
		fmt.Printf("  x=%-4d expected=%-5v closure=%-8d stable=%-8d %s\n",
			r.Input.GetName("i"), r.Expected, r.Configs, r.StableConfigs, status)
	}
	if res.OK() {
		fmt.Printf("VERIFIED: stably computes (i ≥ %d) on all %d inputs (max closure %d)\n",
			n, len(res.Reports), res.MaxConfigs)
		return nil
	}
	return fmt.Errorf("verification FAILED for %d inputs", len(res.Failures))
}
