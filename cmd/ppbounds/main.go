// Command ppbounds evaluates the paper's quantitative bounds.
//
// Usage:
//
//	ppbounds thm43 -dmax 10 -w 2 -l 2       Theorem 4.3 table
//	ppbounds minstates -log10n 100 -m 2     states needed for a given n
//	ppbounds cor44 -kmax 20 -exp 0.49 -m 2  Corollary 4.4 curve at n=2^(2^k)
//	ppbounds rackoff -d 5 -t 1 -r 1         Lemma 5.3 bound
//	ppbounds section8 -d 4 -t 2 -l 2        Section 8 cascade (b,h,k,a,ℓ,n)
//
// The flags and their defaults are bounds' parameter table, the one
// /v1/bounds fills omitted members from, and every subcommand prints
// the text of bounds.Query.Eval, the evaluation /v1/bounds returns.
// Eval first applies bounds.Query.Check, the domain rule: a query
// whose rows or values would overflow float64 in log10 form is
// rejected before anything is evaluated, with the same error text.
// Rows are evaluated in one loop: the costliest accepted row, thm43's
// exact d = 2 value, takes about a millisecond, and every other row
// under a microsecond.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bounds"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppbounds:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("subcommand required: thm43 | minstates | cor44 | rackoff | section8")
	}
	q := bounds.Query{Op: args[0]}
	fs := flag.NewFlagSet(q.Op, flag.ContinueOnError)
	if !q.Flags(fs) {
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	// The table subcommands' -workers flag was removed; it stays
	// defined there so a command line that still passes it learns why
	// it fails.
	if q.Op == "thm43" || q.Op == "cor44" {
		fs.String("workers", "", "removed: rows are evaluated in one loop")
	}
	// cor44's exponent flag was -h. A command line that still gives
	// -h a value (-h=0.3, or any argument after it, as the flag
	// package read it) learns the new name; a bare -h asks for help.
	if q.Op == "cor44" {
		for i, a := range args[1:] {
			if strings.HasPrefix(a, "-h=") || strings.HasPrefix(a, "--h=") ||
				(a == "-h" || a == "--h") && i+2 < len(args) {
				return errors.New("-h was renamed -exp")
			}
		}
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	var removed error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			removed = errors.New("-workers was removed: rows are evaluated in one loop")
		}
	})
	if removed != nil {
		return removed
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	res, err := q.Eval()
	if err != nil {
		return err
	}
	switch q.Op {
	case "thm43":
		fmt.Fprintf(out, "Theorem 4.3: n ≤ (4+4·%d+2·%d)^(d^((d+2)²))\n", q.W, q.L)
		for _, r := range res.Rows {
			fmt.Fprintf(out, "  d=%-3d log10(max n) = %.4g\n", r.K, r.Value)
		}
	case "minstates":
		fmt.Fprintf(out, "deciding (i ≥ n) with n = 1e%g and width/leaders ≤ %d needs ≥ %d states\n", q.Log10N, q.M, int(res.Value))
	case "cor44":
		fmt.Fprintf(out, "Corollary 4.4 lower bound Ω((log log n)^%g) at n = 2^(2^k), m = %d\n", q.H, q.M)
		for _, r := range res.Rows {
			fmt.Fprintf(out, "  k=%-3d states ≥ %.2f\n", r.K, r.Value)
		}
	case "rackoff":
		fmt.Fprintf(out, "Lemma 5.3: covering word length ≤ (%d+%d)^(%d^%d): log10 = %.4g\n",
			q.R, q.T, q.D, q.D, res.Value)
	case "section8":
		fmt.Fprintf(out, "Section 8 cascade for d=%d, ‖T‖∞=%d, ‖ρL‖∞=%d:\n", q.D, q.T, q.L)
		c := res.Cascade
		fmt.Fprintf(out, "  b: log10 = %.4g\n", c["b"])
		fmt.Fprintf(out, "  h: log10 = %.4g\n", c["h"])
		fmt.Fprintf(out, "  k: log10 = %.4g\n", c["k"])
		fmt.Fprintf(out, "  a: log10 = %.4g\n", c["a"])
		fmt.Fprintf(out, "  ℓ: log10 = %.4g\n", c["l"])
		fmt.Fprintf(out, "  n: log10 = %.4g (final bound on the threshold)\n", c["n"])
	}
	return nil
}
