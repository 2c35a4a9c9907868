package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the output golden")

// The printed text of every subcommand, at its defaults and at one
// other query, is pinned by testdata/output.golden.txt.
func TestSubcommands(t *testing.T) {
	cases := [][]string{
		{"thm43"}, {"thm43", "-dmax", "4", "-w", "3", "-l", "1"},
		{"minstates"}, {"minstates", "-log10n", "1e200", "-m", "3"},
		{"cor44"}, {"cor44", "-kmax", "24", "-exp", "0.45", "-m", "1"},
		{"rackoff"}, {"rackoff", "-d", "4", "-t", "2", "-r", "3"},
		{"section8"}, {"section8", "-d", "3", "-t", "1", "-l", "4"},
	}
	var b strings.Builder
	for _, args := range cases {
		fmt.Fprintf(&b, "$ ppbounds %s\n", strings.Join(args, " "))
		if err := run(args, &b); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	golden := filepath.Join("testdata", "output.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("output drifted from %s\ngot:\n%s\nwant:\n%s", golden, b.String(), want)
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
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"nope"}, io.Discard); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"section8", "-d", "1"}, io.Discard); err == nil {
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
		done <- run(args, io.Discard)
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
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-h was renamed -exp") {
			t.Errorf("%v: error %v does not name the rename", args, err)
		}
	}
	if err := run([]string{"cor44", "-kmax", "2", "-exp", "0.3"}, io.Discard); err != nil {
		t.Errorf("cor44 -exp 0.3: %v", err)
	}
}

// The table subcommands' -workers flag is removed; passing it names
// the removal.
func TestRemovedWorkersFlag(t *testing.T) {
	for _, sub := range []string{"thm43", "cor44"} {
		err := run([]string{sub, "-workers", "2"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-workers was removed") {
			t.Errorf("%s -workers 2: error %v does not name the removal", sub, err)
		}
	}
}

// flag stops at the first positional argument, so a stray one would
// silently drop every flag after it; each must be rejected by name.
func TestStrayArguments(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		stray string
	}{
		{[]string{"minstates", "100"}, "100"},
		{[]string{"thm43", "-dmax", "2", "junk"}, "junk"},
		{[]string{"cor44", "extra", "-kmax", "3"}, "extra"},
		{[]string{"rackoff", "5"}, "5"},
		{[]string{"section8", "-d", "3", "x"}, "x"},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), `unexpected argument "`+tc.stray+`"`) {
			t.Errorf("run(%v) = %v, want it to name the argument %q", tc.args, err, tc.stray)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %q", tc.args, out.String())
		}
	}
}
