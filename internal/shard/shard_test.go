package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSpec is a small sweep that exercises both sides of the flock(4)
// threshold under the exact weighted scheduler.
func testSpec() SweepSpec {
	return SweepSpec{
		Protocol:   "flock",
		Param:      4,
		InputState: "i",
		Sizes:      []int64{2, 4, 8, 16},
		Trials:     6,
		Seed:       1,
		MaxSteps:   200_000,
		Patience:   1_000,
	}
}

// The headline acceptance property: plan → run shards → merge is
// bit-identical to the single-process sweep, for every shard count.
func TestMergeMatchesSingleProcessSweep(t *testing.T) {
	sw := testSpec()
	p, n, err := sw.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	opts, err := sw.Options(0)
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	// The single-process sweep: one trial pool over one cell per size.
	cells := make([]sim.Cell, len(sw.Sizes))
	for i, x := range sw.Sizes {
		cells[i] = sim.Cell{X: x, TrialHi: sw.Trials}
	}
	whole := make([]sim.SweepPoint, len(sw.Sizes))
	err = sim.SweepCells(context.Background(), p, sw.InputState, cells, func(x int64) bool { return x >= n }, opts,
		func(i int, st sim.Stats) error {
			whole[i] = sim.SweepPoint{X: sw.Sizes[i], Stats: st}
			return nil
		})
	if err != nil {
		t.Fatalf("SweepCells: %v", err)
	}
	for _, shards := range []int{1, 2, 4, 7, 24, 100} {
		m, err := PlanCostBlock(sw, shards, UniformCost{}, 0)
		if err != nil {
			t.Fatalf("PlanCostBlock(%d, UniformCost{}, 0): %v", shards, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("PlanCostBlock(%d, UniformCost{}, 0) invalid: %v", shards, err)
		}
		arts := make([]*Artifact, 0, len(m.Shards))
		for _, spec := range m.Shards {
			a, err := Run(context.Background(), m, spec.ID, 0)
			if err != nil {
				t.Fatalf("Run(%d, %s): %v", shards, spec.ID, err)
			}
			arts = append(arts, a)
		}
		// Merge in reverse arrival order too: order must not matter.
		for _, reverse := range []bool{false, true} {
			in := arts
			if reverse {
				in = make([]*Artifact, len(arts))
				for i, a := range arts {
					in[len(arts)-1-i] = a
				}
			}
			merged, err := Merge(in)
			if err != nil {
				t.Fatalf("Merge(%d shards, reverse=%v): %v", shards, reverse, err)
			}
			if !reflect.DeepEqual(merged.Points, whole) {
				t.Errorf("%d shards (reverse=%v): merged points differ from single-process sweep\nmerged: %+v\nwhole:  %+v",
					shards, reverse, merged.Points, whole)
			}
		}
	}
}

// Serializing artifacts through JSON (as ppsweep does between run and
// merge) must not perturb the merge: the accumulators are integers.
func TestMergeSurvivesJSONRoundTrip(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 2, UniformCost{}, 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	direct := make([]*Artifact, 0, 2)
	decoded := make([]*Artifact, 0, 2)
	for _, spec := range m.Shards {
		a, err := Run(context.Background(), m, spec.ID, 0)
		if err != nil {
			t.Fatalf("Run(%s): %v", spec.ID, err)
		}
		direct = append(direct, a)
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Artifact
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		decoded = append(decoded, &back)
	}
	a, err := Merge(direct)
	if err != nil {
		t.Fatalf("Merge(direct): %v", err)
	}
	b, err := Merge(decoded)
	if err != nil {
		t.Fatalf("Merge(decoded): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("JSON round trip changed the merge:\ndirect:  %+v\ndecoded: %+v", a, b)
	}
}

// Plan must partition the (size × trial) grid exactly: every cell
// covered once, across representative shapes.
func TestPlanPartitionsGrid(t *testing.T) {
	for _, tc := range []struct {
		sizes  int
		trials int
		shards int
	}{
		{1, 1, 1}, {1, 1, 5}, {4, 6, 1}, {4, 6, 2}, {4, 6, 3},
		{4, 6, 5}, {4, 6, 24}, {4, 6, 100}, {3, 7, 4}, {2, 8, 4},
	} {
		sw := testSpec()
		sw.Sizes = make([]int64, tc.sizes)
		for i := range sw.Sizes {
			sw.Sizes[i] = int64(10 + i)
		}
		sw.Trials = tc.trials
		m, err := PlanCostBlock(sw, tc.shards, UniformCost{}, 0)
		if err != nil {
			t.Fatalf("PlanCostBlock(%+v, UniformCost{}, 0): %v", tc, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("PlanCostBlock(%+v, UniformCost{}, 0) does not tile the grid: %v", tc, err)
		}
		wantShards := min(tc.shards, tc.sizes*tc.trials)
		if len(m.Shards) != wantShards {
			t.Errorf("PlanCostBlock(%+v, UniformCost{}, 0) = %d shards, want %d", tc, len(m.Shards), wantShards)
		}
		// Near-equal balance: shard trial counts differ by at most 1.
		lo, hi := m.Shards[0].Trials(), m.Shards[0].Trials()
		for _, s := range m.Shards {
			n := s.Trials()
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > 1 {
			t.Errorf("PlanCostBlock(%+v, UniformCost{}, 0): unbalanced shards (trials %d..%d)", tc, lo, hi)
		}
	}
}

// The manifest bytes for a fixed spec are part of the cross-process
// contract: a planner change that reshuffles shards silently breaks
// mixed-version fleets, so it must show up as a golden diff.
func TestPlanGolden(t *testing.T) {
	sw := SweepSpec{
		Protocol:   "power2",
		Param:      5,
		InputState: "i",
		Sizes:      []int64{16, 32, 64},
		Trials:     4,
		Seed:       42,
		MaxSteps:   100_000,
		Scheduler:  "countbatch",
		Epsilon:    0.05,
	}
	m, err := PlanCostBlock(sw, 5, UniformCost{}, 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	checkGolden(t, filepath.Join("testdata", "plan.golden.json"), got)

	// The planner's cut table: every spec crossed with every model,
	// shard count and trial block, one compact manifest per line.
	geometric := testSpec()
	geometric.Sizes = nil
	for k := 4; k <= 12; k++ {
		geometric.Sizes = append(geometric.Sizes, int64(1)<<k)
	}
	manyTrials := testSpec()
	manyTrials.Sizes = []int64{3, 5, 8, 13, 21, 34, 55, 89}
	manyTrials.Trials = 20
	for _, tc := range []struct {
		name string
		sw   SweepSpec
	}{{"power2", sw}, {"geometric", geometric}, {"many-trials", manyTrials}} {
		var b bytes.Buffer
		for _, model := range []CostModel{UniformCost{}, LinearCost{}, LogCost{}} {
			for _, shards := range []int{1, 2, 3, 5, 7} {
				for _, block := range []int{0, 1, 2, 3, tc.sw.Trials} {
					m, err := PlanCostBlock(tc.sw, shards, model, block)
					if err != nil {
						t.Fatalf("%s: PlanCostBlock(%d, %s, %d): %v", tc.name, shards, model.Name(), block, err)
					}
					line, err := json.Marshal(m)
					if err != nil {
						t.Fatalf("marshal: %v", err)
					}
					fmt.Fprintf(&b, "%s shards=%d block=%d %s\n", model.Name(), shards, block, line)
				}
			}
		}
		checkGolden(t, filepath.Join("testdata", "plans", tc.name+".golden.txt"), b.Bytes())
	}
}

// checkGolden compares got with the golden file at path, rewriting it
// first under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s drifted at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, want %d", path, len(gl), len(wl))
	}
}

func TestPlanRejectsBadSpecs(t *testing.T) {
	bad := []SweepSpec{
		{},
		{Protocol: "nope", InputState: "i", Sizes: []int64{1}, Trials: 1},
		{Protocol: "flock", Param: 4, InputState: "", Sizes: []int64{1}, Trials: 1},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: nil, Trials: 1},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{3, 3}, Trials: 1},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{-1}, Trials: 1},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{1}, Trials: 0},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{1}, Trials: 1, Scheduler: "nope"},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{1}, Trials: 1, MaxSteps: -1},
		// The scheduler's batch/eps rule is sim's, checked at plan time
		// rather than on every shard's worker.
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{1}, Trials: 1, Scheduler: "countbatch", Epsilon: 1.5},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{1}, Trials: 1, Scheduler: "weighted", Batch: 9},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{1}, Trials: 1, Scheduler: "weighted", Epsilon: 0.3},
		{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{1}, Trials: 1, Scheduler: "batched"},
	}
	for i, sw := range bad {
		if _, err := PlanCostBlock(sw, 2, UniformCost{}, 0); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sw)
		}
	}
	if _, err := PlanCostBlock(testSpec(), 0, UniformCost{}, 0); err == nil {
		t.Error("zero shard count accepted")
	}
}

// Non-counting protocols have no expected predicate to score against.
func TestBuildRejectsNonCounting(t *testing.T) {
	sw := SweepSpec{Protocol: "majority", InputState: "A", Sizes: []int64{4}, Trials: 1}
	if _, _, err := sw.Build(); err == nil {
		t.Error("majority accepted as a sweepable counting protocol")
	}
}

func TestRunUnknownShard(t *testing.T) {
	m, err := PlanCostBlock(testSpec(), 2, UniformCost{}, 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if _, err := Run(context.Background(), m, "s999", 0); err == nil {
		t.Error("unknown shard id accepted")
	}
}

func TestRunCancelled(t *testing.T) {
	m, err := PlanCostBlock(testSpec(), 1, UniformCost{}, 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, m, "s000", 0); err == nil {
		t.Error("cancelled run returned no error")
	}
}

// runShards executes every shard of a fresh plan of testSpec.
func runShards(t *testing.T, shards int) []*Artifact {
	t.Helper()
	m, err := PlanCostBlock(testSpec(), shards, UniformCost{}, 0)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	arts := make([]*Artifact, 0, len(m.Shards))
	for _, spec := range m.Shards {
		a, err := Run(context.Background(), m, spec.ID, 0)
		if err != nil {
			t.Fatalf("Run(%s): %v", spec.ID, err)
		}
		arts = append(arts, a)
	}
	return arts
}

func TestMergeDetectsOverlap(t *testing.T) {
	arts := runShards(t, 2)
	// The same shard delivered twice.
	if _, err := Merge([]*Artifact{arts[0], arts[1], arts[0]}); err == nil {
		t.Error("duplicated shard artifact accepted")
	}
}

func TestMergeDetectsMissing(t *testing.T) {
	arts := runShards(t, 2)
	if _, err := Merge(arts[:1]); err == nil {
		t.Error("incomplete shard set accepted")
	}
}

func TestMergeDetectsMixedSchema(t *testing.T) {
	arts := runShards(t, 2)
	broken := *arts[1]
	broken.Schema = ArtifactSchema + 1
	if _, err := Merge([]*Artifact{arts[0], &broken}); err == nil {
		t.Error("mixed artifact schemas accepted")
	}
}

func TestMergeDetectsSweepMismatch(t *testing.T) {
	arts := runShards(t, 2)
	other := *arts[1]
	other.Sweep.Seed++
	if _, err := Merge([]*Artifact{arts[0], &other}); err == nil {
		t.Error("artifacts from different sweeps accepted")
	}
}

func TestMergeDetectsForeignSize(t *testing.T) {
	arts := runShards(t, 2)
	alien := *arts[1]
	alien.Points = append([]PartialPoint{}, alien.Points...)
	alien.Points[0].X = 999
	if _, err := Merge([]*Artifact{arts[0], &alien}); err == nil {
		t.Error("partial results for a size outside the sweep accepted")
	}
}

func TestMergeDetectsInconsistentTrialCount(t *testing.T) {
	arts := runShards(t, 2)
	hurt := *arts[1]
	hurt.Points = append([]PartialPoint{}, hurt.Points...)
	hurt.Points[0].Stats.Trials-- // accumulators no longer cover the claimed range
	if _, err := Merge([]*Artifact{arts[0], &hurt}); err == nil {
		t.Error("internally inconsistent artifact accepted")
	}
}

func TestMergeEmpty(t *testing.T) {
	if _, err := Merge(nil); err == nil {
		t.Error("empty artifact list accepted")
	}
}
