package shard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The executor's waves against the cell-at-a-time reference, on the
// stopping cases of stop_test.go and on a plain sweep: every shard of
// every cut, run in shard order over one shared partials directory
// (or none), reports the reference's points and counters — the same
// cells stopped, loaded and computed.
func TestPoolWavesMatchReference(t *testing.T) {
	cases := []struct {
		name  string
		sw    SweepSpec
		rule  sim.StopRule
		noDir bool
	}{
		{"stop", stopSpec(), stopRule(), false},
		{"stop-nodir", stopSpec(), stopRule(), true},
		{"plain", testSpec(), sim.StopRule{}, false},
	}
	for _, tc := range cases {
		for _, cut := range []int{1, 2, 4, 7} {
			m, err := PlanCostBlock(tc.sw, cut, DefaultCost(tc.sw.Scheduler), 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				dir, refDir := t.TempDir(), t.TempDir()
				if tc.noDir {
					dir, refDir = "", ""
				}
				for _, spec := range m.Shards {
					got, gc, err := RunResumableStop(context.Background(), m, spec.ID, workers, dir, tc.rule, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, wc, err := referenceRunResumable(context.Background(), m, spec.ID, workers, refDir, tc.rule)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Points, want.Points) {
						t.Errorf("%s cut=%d workers=%d %s: points\n%+v\nreference\n%+v", tc.name, cut, workers, spec.ID, got.Points, want.Points)
					}
					if gc != wc {
						t.Errorf("%s cut=%d workers=%d %s: counters %+v, reference %+v", tc.name, cut, workers, spec.ID, gc, wc)
					}
				}
			}
		}
	}
}

// A worker told to die after n fresh cells persists exactly the first
// n cells of its shard, in plan order, even with several cells in
// flight on the trial pool when the n-th lands.
func TestPoolFailAfterLeavesExactlyN(t *testing.T) {
	m, err := PlanCostBlock(testSpec(), 1, DefaultCost(""), 1) // 24 one-trial cells
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := m.Shard("s000")
	for _, n := range []int{1, 3, 5} {
		dir := t.TempDir()
		env := newQueueEnv(nil, 0, 0, nil)
		if _, err := runResumable(context.Background(), m, "s000", 4, dir, n, env, sim.StopRule{}, nil); !errors.Is(err, errInjectedFailure) {
			t.Fatalf("n=%d: injected failure not reported: %v", n, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != n {
			t.Errorf("n=%d: %d partials, want %d", n, len(entries), n)
		}
		for _, c := range spec.Cells[:n] {
			if _, err := os.Stat(filepath.Join(dir, cellFileName(c))); err != nil {
				t.Errorf("n=%d: cell %+v not persisted: %v", n, c, err)
			}
		}
	}
}
