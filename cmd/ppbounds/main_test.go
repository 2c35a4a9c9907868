package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestSubcommands(t *testing.T) {
	cases := [][]string{
		{"thm43", "-dmax", "4"},
		{"minstates", "-log10n", "100", "-m", "2"},
		{"cor44", "-kmax", "5"},
		{"rackoff", "-d", "4"},
		{"section8", "-d", "3"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// Asking a subcommand for help is not an error: the command prints the
// usage to stderr and exits 0. Each case runs the command's main in a
// child process of the test binary to see its exit status.
func TestHelp(t *testing.T) {
	if args := os.Getenv("PPBOUNDS_TEST_ARGS"); args != "" {
		os.Args = append([]string{"ppbounds"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cases := []string{
		"thm43 -h", "minstates -h", "cor44 -h", "rackoff -h", "section8 -h",
		"thm43 -help", "minstates -help", "cor44 -help", "rackoff -help", "section8 -help",
	}
	for _, args := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelp$")
		cmd.Env = append(os.Environ(), "PPBOUNDS_TEST_ARGS="+args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("ppbounds %s: %v; stderr:\n%s", args, err, stderr.String())
			continue
		}
		op := strings.Fields(args)[0]
		if !strings.Contains(stderr.String(), "Usage of "+op) || strings.Contains(stderr.String(), "help requested") {
			t.Errorf("ppbounds %s: stderr %q, want the usage alone", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("ppbounds %s: stdout %q, want none", args, stdout.String())
		}
	}
}

func TestErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"nope"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"section8", "-d", "1"}); err == nil {
		t.Error("d=1 accepted by section8")
	}
}

// runWithin runs the CLI on args under a deadline, turning a hang or a
// panic into an error so a query outside the domain fails the test
// instead of stalling or crashing it.
func runWithin(args []string, d time.Duration) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		done <- run(args)
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("no answer within %v", d)
	}
}

// Queries outside bounds.Query.Check's domain hung (minstates with a
// negative m), panicked (non-positive table sizes), printed +Inf rows
// or ran for seconds. Each must now fail at once with the domain
// rule's error.
func TestDomainErrors(t *testing.T) {
	cases := [][]string{
		{"minstates", "-m", "-1"},
		{"minstates", "-log10n", "Inf"},
		{"thm43", "-dmax", "-1"},
		{"cor44", "-kmax", "-3"},
		{"thm43", "-dmax", "15"},
		{"thm43", "-dmax", "2000"},
		{"rackoff", "-d", "200"},
		{"rackoff", "-d", "100000", "-t", "1", "-r", "0"},
		{"section8", "-d", "100"},
		{"cor44", "-kmax", "1024"},
		{"cor44", "-exp", "0.5"},
		{"thm43", "-w", "-5"},
	}
	for _, args := range cases {
		err := runWithin(args, 5*time.Second)
		if err == nil || !strings.HasPrefix(err.Error(), "bounds: ") {
			t.Errorf("run(%v) = %v, want the domain rule's error", args, err)
		}
	}
}

// cor44's exponent flag was renamed from -h to -exp; giving -h a value
// names the rename.
func TestRenamedExponentFlag(t *testing.T) {
	for _, args := range [][]string{
		{"cor44", "-h", "0.3"},
		{"cor44", "-h=0.3"},
		{"cor44", "-kmax", "5", "-h", "0.3"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-h was renamed -exp") {
			t.Errorf("%v: error %v does not name the rename", args, err)
		}
	}
	if err := run([]string{"cor44", "-kmax", "2", "-exp", "0.3"}); err != nil {
		t.Errorf("cor44 -exp 0.3: %v", err)
	}
}

// The table subcommands' -workers flag is removed; passing it names
// the removal.
func TestRemovedWorkersFlag(t *testing.T) {
	for _, sub := range []string{"thm43", "cor44"} {
		err := run([]string{sub, "-workers", "2"})
		if err == nil || !strings.Contains(err.Error(), "-workers was removed") {
			t.Errorf("%s -workers 2: error %v does not name the removal", sub, err)
		}
	}
}
