// Command ppverify exhaustively verifies that a built-in counting
// protocol stably computes its predicate for all inputs up to a bound,
// printing per-input closure statistics.
//
// Usage:
//
//	ppverify -protocol example42 -param 3 -maxx 6
//	ppverify -protocol flock -param 6 -maxx 12 -workers 8
//
// A run of ppverify is a /v1/verify query: -maxx and -budget and their
// defaults are verify.Query's (-maxx 0 means n+3), the input state is
// the protocol's registry entry's, and ppverify prints the protocol,
// the query as a /v1/verify request body, one line per input, and one
// "member: value" line per member of the document verify.Query.Eval
// returns, the one /v1/verify serves.
//
// Verification parallelizes across inputs only: -workers (default all
// cores) sizes the input pool, the calling goroutine among its
// workers, and each input's closure is explored sequentially in RAM,
// in the storage of the worker's previous closure. Results are
// byte-identical for any worker count.
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
	"repro/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppverify:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppverify", flag.ContinueOnError)
	protocol := fs.String("protocol", "example42", fmt.Sprintf("construction: %v", registry.Names()))
	param := fs.Int64("param", 2, "construction parameter (n or k)")
	workers := fs.Int("workers", 0, "size of the input pool: inputs verified at once, each closure explored sequentially (0 = all cores); results are identical for any value")
	var q verify.Query
	q.Flags(fs)
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
	for _, name := range []string{"spill-dir", "spill-mb"} {
		if fs.Lookup(name).Value.String() != "" {
			return fmt.Errorf("-%s was removed: closures are always explored in RAM", name)
		}
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative (got %d)", *workers)
	}
	e, err := registry.Lookup(*protocol)
	if err != nil {
		return err
	}
	p, n, err := registry.Make(*protocol, *param)
	if err != nil {
		return err
	}
	if err := q.Normalize(n); err != nil {
		return err
	}
	// A struct of strings and numbers always marshals.
	query, _ := json.Marshal(struct {
		Spec key.Spec `json:"spec"`
		verify.Query
	}{key.Spec{Protocol: *protocol, Param: *param}, q})
	fmt.Fprintf(out, "%v\nquery: %s\n", p, query)
	res, err := q.Eval(context.Background(), p, e.Input, n, *workers)
	if err != nil {
		return err
	}
	for _, r := range res.Reports {
		status := "OK"
		if !r.OK {
			status = fmt.Sprintf("FAIL (counterexample %v)", r.Counterexample)
		}
		fmt.Fprintf(out, "  x=%-4d expected=%-5v closure=%-8d stable=%-8d %s\n",
			r.Input.GetName(e.Input), r.Expected, r.Configs, r.StableConfigs, status)
	}
	fmt.Fprintf(out, "predicate: %s\nmax_x: %d\ninputs: %d\nok: %v\nfailures: %v\nmax_configs: %d\n",
		res.Predicate, res.MaxX, res.Inputs, res.OK, res.Failures, res.MaxConfigs)
	if !res.OK {
		return fmt.Errorf("verification FAILED for %d inputs", len(res.Failures))
	}
	return nil
}
