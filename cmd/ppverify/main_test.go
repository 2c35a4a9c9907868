package main

import (
	"strings"
	"testing"
)

func TestRunVerifiesExample42(t *testing.T) {
	if err := run([]string{"-protocol", "example42", "-param", "2", "-maxx", "4"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunVerifiesFlock(t *testing.T) {
	if err := run([]string{"-protocol", "flock", "-param", "3", "-maxx", "5"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		// majority decides no counting predicate.
		{"-protocol", "majority"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): error expected", args)
		}
	}
}

// The out-of-core closure flags were removed; passing either names the
// removal instead of running or failing as an unknown flag.
func TestRunRemovedSpillFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-spill-dir", t.TempDir()},
		{"-spill-mb", "512"},
	} {
		err := run(append([]string{"-protocol", "flock", "-param", "3", "-maxx", "2"}, args...))
		if err == nil || !strings.Contains(err.Error(), args[0]+" was removed") || !strings.Contains(err.Error(), "in RAM") {
			t.Errorf("run(%v): error %v does not name the removal", args, err)
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
		{[]string{"flock"}, "flock"},
		{[]string{"-maxx", "3", "flock"}, "flock"},
		{[]string{"-protocol", "flock", "extra", "-maxx", "3"}, "extra"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), `unexpected argument "`+tc.stray+`"`) {
			t.Errorf("run(%v) = %v, want it to name the argument %q", tc.args, err, tc.stray)
		}
	}
}
