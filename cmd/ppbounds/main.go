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
// Every subcommand first applies bounds.Query.Check, the domain rule
// /v1/bounds applies too: a query whose rows or values would overflow
// float64 in log10 form is rejected before anything is evaluated, with
// the same error text. Rows are evaluated in one loop: the costliest
// accepted row, thm43's exact d = 2 value, takes about a millisecond,
// and every other row under a microsecond.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/bounds"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppbounds:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("subcommand required: thm43 | minstates | cor44 | rackoff | section8")
	}
	q := bounds.Query{Op: args[0]}
	fs := flag.NewFlagSet(q.Op, flag.ContinueOnError)
	// The table subcommands' -workers flag was removed; it stays
	// defined there so a command line that still passes it learns why
	// it fails.
	removedWorkers := func() { fs.String("workers", "", "removed: rows are evaluated in one loop") }
	switch q.Op {
	case "thm43":
		fs.IntVar(&q.D, "dmax", 10, "max state count")
		fs.Int64Var(&q.W, "w", 2, "interaction-width")
		fs.Int64Var(&q.L, "l", 2, "leaders")
		removedWorkers()
	case "minstates":
		fs.Float64Var(&q.Log10N, "log10n", 9, "log10 of the threshold n")
		fs.Int64Var(&q.M, "m", 2, "width and leader bound")
	case "cor44":
		fs.IntVar(&q.KMax, "kmax", 20, "max tower level (n = 2^(2^k))")
		fs.Float64Var(&q.H, "exp", 0.49, "exponent h < 1/2")
		fs.Int64Var(&q.M, "m", 2, "width and leader bound")
		removedWorkers()
	case "rackoff":
		fs.IntVar(&q.D, "d", 5, "states |P|")
		fs.Int64Var(&q.T, "t", 1, "‖T‖∞")
		fs.Int64Var(&q.R, "r", 1, "‖target‖∞")
	case "section8":
		fs.IntVar(&q.D, "d", 4, "states |P| (≥ 2)")
		fs.Int64Var(&q.T, "t", 2, "‖T‖∞")
		fs.Int64Var(&q.L, "l", 2, "‖ρ_L‖∞")
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
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
	if err := q.Check(); err != nil {
		return err
	}

	switch q.Op {
	case "thm43":
		fmt.Printf("Theorem 4.3: n ≤ (4+4·%d+2·%d)^(d^((d+2)²))\n", q.W, q.L)
		for d := 1; d <= q.D; d++ {
			m := bounds.Theorem43MaxN(d, q.W, q.L)
			fmt.Printf("  d=%-3d log10(max n) = %.4g\n", d, m.Log10())
		}
	case "minstates":
		d := bounds.MinStatesTheorem43(q.Log10N, q.M)
		fmt.Printf("deciding (i ≥ n) with n = 1e%g and width/leaders ≤ %d needs ≥ %d states\n", q.Log10N, q.M, d)
	case "cor44":
		fmt.Printf("Corollary 4.4 lower bound Ω((log log n)^%g) at n = 2^(2^k), m = %d\n", q.H, q.M)
		for k := 1; k <= q.KMax; k++ {
			lb := bounds.Corollary44LowerBound(math.Pow(2, float64(k)), q.H, q.M)
			fmt.Printf("  k=%-3d states ≥ %.2f\n", k, lb)
		}
	case "rackoff":
		m := bounds.Rackoff(q.D, q.R, q.T)
		fmt.Printf("Lemma 5.3: covering word length ≤ (%d+%d)^(%d^%d): log10 = %.4g\n",
			q.R, q.T, q.D, q.D, m.Log10())
	case "section8":
		s, err := bounds.NewSection8(q.D, q.T, q.L)
		if err != nil {
			return err
		}
		fmt.Printf("Section 8 cascade for d=%d, ‖T‖∞=%d, ‖ρL‖∞=%d:\n", q.D, q.T, q.L)
		fmt.Printf("  b: log10 = %.4g\n", s.B.Log10())
		fmt.Printf("  h: log10 = %.4g\n", s.H.Log10())
		fmt.Printf("  k: log10 = %.4g\n", s.K.Log10())
		fmt.Printf("  a: log10 = %.4g\n", s.A.Log10())
		fmt.Printf("  ℓ: log10 = %.4g\n", s.L.Log10())
		fmt.Printf("  n: log10 = %.4g (final bound on the threshold)\n", s.N.Log10())
	}
	return nil
}
