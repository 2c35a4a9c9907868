package main

import (
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSchedulers(t *testing.T) {
	for _, sched := range []string{"weighted", "uniform", "auto", "countbatch"} {
		args := []string{
			"-protocol", "flock", "-param", "4", "-x", "8",
			"-trials", "2", "-steps", "200000", "-scheduler", sched,
		}
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunCountBatchOptions(t *testing.T) {
	args := []string{
		"-protocol", "power2", "-param", "10", "-x", "1024", "-patience", "0",
		"-steps", "10000000", "-scheduler", "countbatch", "-batch", "32", "-eps", "0.02",
	}
	if err := run(args); err != nil {
		t.Errorf("run(%v): %v", args, err)
	}
}

func TestRunMajority(t *testing.T) {
	args := []string{"-protocol", "majority", "-x", "7", "-y", "3", "-steps", "200000"}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		{"-scheduler", "nope"},
		// Example 4.1 has width-n transitions: the uniform scheduler
		// must reject it.
		{"-protocol", "example41", "-param", "3", "-scheduler", "uniform"},
		// -batch off countbatch/auto would be silently ignored.
		{"-scheduler", "uniform", "-batch", "128"},
		// A negative batch size would be silently coerced to the default.
		{"-scheduler", "auto", "-batch", "-5"},
		// -eps outside (0,1) or off the countbatch scheduler.
		{"-scheduler", "countbatch", "-eps", "1.5"},
		{"-scheduler", "weighted", "-eps", "0.1"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): error expected", args)
		}
	}
	// The removed batched scheduler points at its replacement.
	if err := run([]string{"-scheduler", "batched"}); err == nil || !strings.Contains(err.Error(), "auto") {
		t.Errorf("-scheduler batched: error %v does not name auto", err)
	}
}
