package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/shard"
)

// planArgs builds the shared flag tail of a small flock sweep.
func planArgs(dir string, shards int, planName string) []string {
	return []string{
		"plan", "-protocol", "flock", "-param", "4", "-sizes", "3,4,9",
		"-trials", "4", "-seed", "7", "-steps", "200000", "-patience", "1000",
		"-shards", strconv.Itoa(shards), "-o", filepath.Join(dir, planName),
	}
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(context.Background(), args, &sb); err != nil {
		t.Fatalf("ppsweep %v: %v", args, err)
	}
	return sb.String()
}

// The CLI round trip of the acceptance criteria: plan into 2 shards,
// run both, merge — and the merged document is byte-identical to the
// one produced by the unsharded (1-shard) pipeline of the same spec.
func TestPlanRunMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan2.json")...)
	mustRun(t, "run", "-plan", filepath.Join(dir, "plan2.json"), "-shard", "s000",
		"-o", filepath.Join(dir, "part-s000.json"))
	mustRun(t, "run", "-plan", filepath.Join(dir, "plan2.json"), "-shard", "s001",
		"-o", filepath.Join(dir, "part-s001.json"))
	out := mustRun(t, "merge", "-o", filepath.Join(dir, "merged2.json"),
		filepath.Join(dir, "part-s000.json"), filepath.Join(dir, "part-s001.json"))
	if !strings.Contains(out, "mean steps") {
		t.Errorf("merge table missing from output:\n%s", out)
	}

	mustRun(t, planArgs(dir, 1, "plan1.json")...)
	mustRun(t, "run", "-plan", filepath.Join(dir, "plan1.json"), "-shard", "s000",
		"-o", filepath.Join(dir, "part-single.json"))
	mustRun(t, "merge", "-o", filepath.Join(dir, "merged1.json"),
		filepath.Join(dir, "part-single.json"))

	sharded, err := os.ReadFile(filepath.Join(dir, "merged2.json"))
	if err != nil {
		t.Fatal(err)
	}
	single, err := os.ReadFile(filepath.Join(dir, "merged1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(sharded) != string(single) {
		t.Errorf("2-shard merge differs from unsharded merge:\n%s\nvs\n%s", sharded, single)
	}

	var merged shard.Merged
	if err := json.Unmarshal(sharded, &merged); err != nil {
		t.Fatalf("merged document: %v", err)
	}
	if len(merged.Points) != 3 {
		t.Fatalf("merged points = %d, want 3", len(merged.Points))
	}
	for _, pt := range merged.Points {
		if pt.Stats.Trials != 4 || pt.Stats.Correct != 4 {
			t.Errorf("x=%d: %d/%d correct of %d trials",
				pt.X, pt.Stats.Correct, pt.Stats.Trials, pt.Stats.Trials)
		}
	}
}

func TestPlanDeterministicBytes(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "a.json")...)
	mustRun(t, planArgs(dir, 2, "b.json")...)
	a, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("same plan flags produced different manifests")
	}
}

func TestMergeRejectsDuplicateArtifact(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan.json")...)
	part := filepath.Join(dir, "part-s000.json")
	mustRun(t, "run", "-plan", filepath.Join(dir, "plan.json"), "-shard", "s000", "-o", part)
	if err := run(context.Background(),
		[]string{"merge", "-o", filepath.Join(dir, "m.json"), part, part}, &strings.Builder{}); err == nil {
		t.Error("merge accepted the same shard twice")
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"plan", "-protocol", "flock", "-param", "4", "-trials", "2", "-shards", "1"}, // no sizes
		{"plan", "-protocol", "nope", "-sizes", "4", "-o", filepath.Join(dir, "p.json")},
		{"plan", "-protocol", "majority", "-sizes", "4", "-o", filepath.Join(dir, "p.json")}, // non-counting
		{"plan", "-protocol", "flock", "-param", "4", "-sizes", "4,x", "-o", filepath.Join(dir, "p.json")},
		// Scheduler parameters are checked at plan time, not per shard.
		{"plan", "-protocol", "flock", "-param", "4", "-sizes", "4", "-scheduler", "countbatch", "-eps", "1.5", "-o", filepath.Join(dir, "p.json")},
		{"plan", "-protocol", "flock", "-param", "4", "-sizes", "4", "-scheduler", "weighted", "-batch", "9", "-o", filepath.Join(dir, "p.json")},
		{"plan", "-protocol", "flock", "-param", "4", "-sizes", "4", "-scheduler", "weighted", "-eps", "0.3", "-o", filepath.Join(dir, "p.json")},
		{"run", "-plan", filepath.Join(dir, "absent.json"), "-shard", "s000"},
		{"run", "-plan", filepath.Join(dir, "absent.json")}, // no shard id
		{"merge", "-o", filepath.Join(dir, "m.json")},       // no artifacts
		{"merge", "-o", filepath.Join(dir, "m.json"), filepath.Join(dir, "absent.json")},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &strings.Builder{}); err == nil {
			t.Errorf("ppsweep %v: expected error", args)
		}
	}
	// The removed batched scheduler points at its replacement.
	args := []string{"plan", "-protocol", "flock", "-param", "4", "-sizes", "4", "-scheduler", "batched", "-o", filepath.Join(dir, "p.json")}
	if err := run(context.Background(), args, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "auto") {
		t.Errorf("ppsweep %v: error %v does not name auto", args, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "p.json")); err == nil {
		t.Error("a rejected plan was written")
	}
}

// The merge error paths, driven from the CLI: a missing shard (gap),
// a shard delivered twice (overlap — see also
// TestMergeRejectsDuplicateArtifact), a mixed schema version, and an
// artifact from a different sweep must all fail with a diagnostic,
// not a silently wrong table.
func TestMergeErrorPathsCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	s0 := filepath.Join(dir, "part-s000.json")
	s1 := filepath.Join(dir, "part-s001.json")
	mustRun(t, "run", "-plan", plan, "-shard", "s000", "-o", s0)
	mustRun(t, "run", "-plan", plan, "-shard", "s001", "-o", s1)

	rewrite := func(t *testing.T, path string, mutate func(*shard.Artifact)) string {
		t.Helper()
		var a shard.Artifact
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
		mutate(&a)
		// Re-seal: a content edit under the old sum would be flagged as
		// corruption before the error path under test fires.
		out := filepath.Join(t.TempDir(), "mutated.json")
		data, err = canon.Seal(&a, &a.Checksum, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"gap", []string{s0}, "no partial results"},
		{"overlap", []string{s0, s1, s1}, "overlap"},
		{"mixed schema", []string{s0, rewrite(t, s1, func(a *shard.Artifact) { a.Schema++ })}, "schema"},
		{"foreign sweep", []string{s0, rewrite(t, s1, func(a *shard.Artifact) { a.Sweep.Seed++ })}, "different sweep"},
	}
	for _, tc := range cases {
		args := append([]string{"merge", "-o", filepath.Join(t.TempDir(), "m.json")}, tc.args...)
		err := run(context.Background(), args, &strings.Builder{})
		if err == nil {
			t.Errorf("%s: merge accepted bad artifact set", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// Kill-mid-shard and resume through the CLI: a worker run with
// -partials that loses its artifact (and one cell) re-runs and
// produces a byte-identical artifact from the surviving cells.
func TestRunPartialsResumeCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 1, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	cells := filepath.Join(dir, "cells")
	art := filepath.Join(dir, "part-s000.json")
	mustRun(t, "run", "-plan", plan, "-shard", "s000", "-partials", cells, "-o", art)
	full, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no cell partials persisted")
	}
	// Simulate a worker killed before finishing: the artifact and one
	// cell are lost, the other cells survive.
	if err := os.Remove(art); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(cells, entries[0].Name())); err != nil {
		t.Fatal(err)
	}
	mustRun(t, "run", "-plan", plan, "-shard", "s000", "-partials", cells, "-o", art)
	resumed, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(full) {
		t.Errorf("resumed artifact differs from uninterrupted run:\n%s\nvs\n%s", resumed, full)
	}
}

// The dispatcher drill, CLI end to end: worker 1 dies mid-shard
// (fault injection), worker 2 steals the expired lease, resumes from
// the cell partials, drains the queue and merges — byte-identically
// to the plain 2-shard plan/run/merge pipeline.
// dispatch's -heartbeat and -poll-max were removed; passing either
// names the removal and the value now derived in its place.
func TestRunRemovedDispatchFlags(t *testing.T) {
	for _, c := range []struct{ flag, why string }{
		{"-heartbeat", "lease-ttl/4"},
		{"-poll-max", "8×poll"},
	} {
		err := run(context.Background(),
			[]string{"dispatch", "-plan", "plan.json", "-dir", t.TempDir(), c.flag, "1s"},
			&strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), c.flag+" was removed") || !strings.Contains(err.Error(), c.why) {
			t.Errorf("dispatch %s 1s: error %v does not name the removal", c.flag, err)
		}
	}
}

// plan's -input was removed: the input state is the registry entry's,
// so a plan carries the state /v1/sweep uses, and passing -input names
// the removal.
func TestPlanRemovedInputFlag(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), append(planArgs(dir, 1, "p.json"), "-input", "i"), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "-input was removed") {
		t.Errorf("plan -input i: error %v does not name the removal", err)
	}
	mustRun(t, planArgs(dir, 1, "p.json")...)
	var m shard.Manifest
	data, err := os.ReadFile(filepath.Join(dir, "p.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Sweep.InputState != "i" {
		t.Errorf("flock plan input state %q, want the registry's %q", m.Sweep.InputState, "i")
	}
}

func TestDispatchKillRedispatchCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	queue := filepath.Join(dir, "queue")
	if err := run(context.Background(),
		[]string{"dispatch", "-plan", plan, "-dir", queue, "-fail-after-cells", "1"},
		&strings.Builder{}); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("fault-injected dispatch: want injected failure, got %v", err)
	}
	merged := filepath.Join(dir, "merged-dispatch.json")
	mustRun(t, "dispatch", "-plan", plan, "-dir", queue, "-lease-ttl", "1ns", "-o", merged)

	// Reference: the ordinary worker pipeline of the same plan.
	mustRun(t, "run", "-plan", plan, "-shard", "s000", "-o", filepath.Join(dir, "ref-s000.json"))
	mustRun(t, "run", "-plan", plan, "-shard", "s001", "-o", filepath.Join(dir, "ref-s001.json"))
	ref := filepath.Join(dir, "merged-ref.json")
	mustRun(t, "merge", "-o", ref,
		filepath.Join(dir, "ref-s000.json"), filepath.Join(dir, "ref-s001.json"))
	a, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("dispatched merge differs from plan/run/merge pipeline:\n%s\nvs\n%s", a, b)
	}
}

// merge-bench folds the repo's committed timing artifacts into one
// trajectory table.
func TestMergeBenchCLI(t *testing.T) {
	dir := t.TempDir()
	outJSON := filepath.Join(dir, "traj.json")
	out := mustRun(t, "merge-bench", "-o", outJSON,
		"../../BENCH_PR1.json", "../../BENCH_PR2.json", "../../BENCH_PR4.json")
	for _, want := range []string{"experiment", "E2", "BENCH_PR1", "BENCH_PR4"} {
		if !strings.Contains(out, want) {
			t.Errorf("merge-bench table missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(outJSON); err != nil {
		t.Errorf("merged trajectory JSON not written: %v", err)
	}
	if err := run(context.Background(), []string{"merge-bench"}, &strings.Builder{}); err == nil {
		t.Error("merge-bench with no files accepted")
	}
}

func TestRunUnknownShardID(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan.json")...)
	if err := run(context.Background(),
		[]string{"run", "-plan", filepath.Join(dir, "plan.json"), "-shard", "s999"}, &strings.Builder{}); err == nil {
		t.Error("unknown shard id accepted")
	}
}

// anytimePlanArgs plans a blocked sweep sized for the stop rule to
// fire well before the trial budget: flock(4), 48 trials in blocks of
// 4.
func anytimePlanArgs(dir, planName string) []string {
	return []string{
		"plan", "-protocol", "flock", "-param", "4", "-sizes", "2,4",
		"-trials", "48", "-seed", "1", "-steps", "200000", "-patience", "1000",
		"-block", "4", "-shards", "1", "-o", filepath.Join(dir, planName),
	}
}

// merge -partial folds a strict subset of a sweep into a valid partial
// document, and the strict merge of the same subset fails with a hint
// pointing at -partial.
func TestMergePartialSubsetCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	s0 := filepath.Join(dir, "part-s000.json")
	mustRun(t, "run", "-plan", plan, "-shard", "s000", "-o", s0)

	err := run(context.Background(),
		[]string{"merge", "-o", filepath.Join(dir, "strict.json"), s0}, &strings.Builder{})
	if err == nil {
		t.Fatal("strict merge accepted an incomplete artifact set")
	}
	if !strings.Contains(err.Error(), "-partial") {
		t.Errorf("strict-merge error %q does not hint at -partial", err)
	}

	partial := filepath.Join(dir, "partial.json")
	out := mustRun(t, "merge", "-partial", "-o", partial, s0)
	for _, want := range []string{"anytime", "done", "planned"} {
		if !strings.Contains(out, want) {
			t.Errorf("merge -partial output missing %q:\n%s", want, out)
		}
	}
	var doc shard.AnytimeMerged
	data, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Partial {
		t.Error("subset merge not marked partial")
	}
	incomplete := 0
	for _, pt := range doc.Points {
		if pt.TrialsPlanned > 0 && pt.Stats.Trials < pt.TrialsPlanned {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Error("no point reports missing trials in a half-sweep merge")
	}
}

// merge -partial accepts a full queue directory (artifacts plus cell
// partials) and, with every shard present, reproduces the strict merge
// byte for byte modulo the anytime schema.
func TestMergePartialFullSetCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	s0 := filepath.Join(dir, "part-s000.json")
	s1 := filepath.Join(dir, "part-s001.json")
	mustRun(t, "run", "-plan", plan, "-shard", "s000", "-o", s0)
	mustRun(t, "run", "-plan", plan, "-shard", "s001", "-o", s1)
	strictPath := filepath.Join(dir, "strict.json")
	anytimePath := filepath.Join(dir, "anytime.json")
	mustRun(t, "merge", "-o", strictPath, s0, s1)
	mustRun(t, "merge", "-partial", "-o", anytimePath, s0, s1)
	strict, err := os.ReadFile(strictPath)
	if err != nil {
		t.Fatal(err)
	}
	anytime, err := os.ReadFile(anytimePath)
	if err != nil {
		t.Fatal(err)
	}
	if string(strict) != string(anytime) {
		t.Errorf("complete anytime merge differs from strict merge:\n%s\nvs\n%s", anytime, strict)
	}
}

// status renders the live view of a queue a fault-injected dispatcher
// abandoned halfway: completeness under 100%, a table, nothing
// written.
func TestStatusCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 2, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	queue := filepath.Join(dir, "queue")
	if err := run(context.Background(),
		[]string{"dispatch", "-plan", plan, "-dir", queue, "-fail-after-cells", "1"},
		&strings.Builder{}); err == nil {
		t.Fatal("fault-injected dispatch should fail")
	}
	before, err := os.ReadDir(queue)
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, "status", "-plan", plan, "-dir", queue)
	for _, want := range []string{"trials folded", "done", "planned", "mean steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(100%)") {
		t.Errorf("half-run queue reports full completeness:\n%s", out)
	}
	after, err := os.ReadDir(queue)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("status wrote into the queue directory: %d entries -> %d", len(before), len(after))
	}

	// An empty-but-existing directory is reported, not an error.
	empty := filepath.Join(dir, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if out := mustRun(t, "status", "-plan", plan, "-dir", empty); !strings.Contains(out, "nothing computed yet") {
		t.Errorf("empty queue status:\n%s", out)
	}
}

// -ci-target through the CLI: run stops early, the anytime merge of
// its partials reports stopped points with saved trials, and dispatch
// with the same rule produces the identical document.
func TestCITargetRunDispatchCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, anytimePlanArgs(dir, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	cells := filepath.Join(dir, "cells")
	art := filepath.Join(dir, "part-s000.json")
	out := mustRun(t, "run", "-plan", plan, "-shard", "s000",
		"-partials", cells, "-ci-target", "0.05", "-o", art)
	if !strings.Contains(out, "stopped early") {
		t.Errorf("run counters do not mention early stopping:\n%s", out)
	}
	merged := filepath.Join(dir, "merged.json")
	mustRun(t, "merge", "-partial", "-ci-target", "0.05", "-o", merged, art)
	var doc shard.AnytimeMerged
	data, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Partial {
		t.Error("stopped sweep reported partial: cancelled trials are not missing trials")
	}
	for _, pt := range doc.Points {
		if !pt.Stopped {
			t.Errorf("x=%d not stopped", pt.X)
		}
		if pt.TrialsDone >= pt.TrialsPlanned {
			t.Errorf("x=%d: stopping saved nothing (%d of %d)", pt.X, pt.TrialsDone, pt.TrialsPlanned)
		}
	}

	queue := filepath.Join(dir, "queue")
	dispatched := filepath.Join(dir, "dispatched.json")
	dout := mustRun(t, "dispatch", "-plan", plan, "-dir", queue,
		"-ci-target", "0.05", "-o", dispatched)
	if !strings.Contains(dout, "stop rule applied") {
		t.Errorf("dispatch merge does not mention the stop rule:\n%s", dout)
	}
	a, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dispatched)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("dispatched stop-rule merge differs from run+merge pipeline:\n%s\nvs\n%s", b, a)
	}
}

// The anytime flag error matrix: rules without their prerequisites,
// out-of-range targets, and cell inputs fed to the strict merge.
func TestAnytimeFlagErrorsCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, anytimePlanArgs(dir, "plan.json")...)
	plan := filepath.Join(dir, "plan.json")
	cells := filepath.Join(dir, "cells")
	mustRun(t, "run", "-plan", plan, "-shard", "s000", "-partials", cells,
		"-o", filepath.Join(dir, "part-s000.json"))
	entries, err := os.ReadDir(cells)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cell partials to test with: %v", err)
	}
	cell := filepath.Join(cells, entries[0].Name())

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"run rule sans partials", []string{"run", "-plan", plan, "-shard", "s000", "-ci-target", "0.05"}, "-partials"},
		{"run bad target", []string{"run", "-plan", plan, "-shard", "s000", "-partials", cells, "-ci-target", "2"}, "target"},
		{"run floor sans target", []string{"run", "-plan", plan, "-shard", "s000", "-partials", cells, "-min-trials", "4"}, "floor"},
		{"merge rule sans partial", []string{"merge", "-ci-target", "0.05", cell}, "-partial"},
		{"merge cells sans partial", []string{"merge", cell}, "-partial"},
		{"status no dir", []string{"status", "-plan", plan}, "-dir"},
		{"status bad target", []string{"status", "-plan", plan, "-dir", cells, "-ci-target", "-1"}, "target"},
	}
	for _, tc := range cases {
		err := run(context.Background(), append([]string{}, tc.args...), &strings.Builder{})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// status rejects a directory whose artifacts belong to a different
// sweep than the given plan.
func TestStatusForeignPlanCLI(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, planArgs(dir, 1, "plan.json")...)
	mustRun(t, anytimePlanArgs(dir, "other.json")...)
	cells := filepath.Join(dir, "cells")
	mustRun(t, "run", "-plan", filepath.Join(dir, "plan.json"), "-shard", "s000",
		"-partials", cells, "-o", filepath.Join(dir, "part.json"))
	err := run(context.Background(),
		[]string{"status", "-plan", filepath.Join(dir, "other.json"), "-dir", cells},
		&strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("foreign-plan status: got %v", err)
	}
}

// flag stops at the first positional argument, so a stray one would
// silently drop every flag after it; each must be rejected by name.
// merge and merge-bench take their input files as arguments.
func TestStrayArguments(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "p.json")
	for _, tc := range []struct {
		args  []string
		stray string
	}{
		{append(planArgs(dir, 2, "p.json"), "extra"), "extra"},
		{[]string{"plan", "extra", "-protocol", "flock"}, "extra"},
		{[]string{"run", "-plan", plan, "s000"}, "s000"},
		{[]string{"dispatch", "extra", "-plan", plan}, "extra"},
		{[]string{"status", "extra", "-plan", plan}, "extra"},
	} {
		err := run(context.Background(), tc.args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), `unexpected argument "`+tc.stray+`"`) {
			t.Errorf("run(%v) = %v, want it to name the argument %q", tc.args, err, tc.stray)
		}
	}
	if _, err := os.Stat(plan); !os.IsNotExist(err) {
		t.Errorf("a rejected plan command wrote %s (stat: %v)", plan, err)
	}
}
