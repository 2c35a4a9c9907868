package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrial is one pinned count-batched trajectory: how long the run
// took, when its output last changed, what it output and where it
// ended.
type goldenTrial struct {
	Case       string           `json:"case"`
	Trial      int              `json:"trial"`
	Steps      int              `json:"steps"`
	LastChange int              `json:"last_change"`
	Output     string           `json:"output"`
	Final      map[string]int64 `json:"final"`
}

// nonzeroCounts returns c as a state name → count map, omitting zeros.
func nonzeroCounts(c conf.Config) map[string]int64 {
	out := make(map[string]int64)
	for i := 0; i < c.Space().Len(); i++ {
		if n := c.Get(i); n != 0 {
			out[c.Space().Name(i)] = n
		}
	}
	return out
}

// TestCountBatchedTrajectoriesGolden pins the sampled trajectories of
// the count-batched schedulers byte for byte: every trial's steps,
// last output change, output and final counts on the protocols and
// population sizes the sweep benchmark runs them at, plus flock(27),
// the one protocol here wide enough to split its draw into spans. The
// batch step's
// optimizations must leave every draw unchanged, so this file never
// changes without a declared result change. Run with -update to
// rewrite it.
func TestCountBatchedTrajectoriesGolden(t *testing.T) {
	protos := []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"flock(8)", func() (*core.Protocol, error) { return counting.FlockOfBirds(8) }},
		{"example42(4)", func() (*core.Protocol, error) { return counting.Example42(4) }},
		{"power2(20)", func() (*core.Protocol, error) { return counting.PowerOfTwo(20) }},
		{"power2(26)", func() (*core.Protocol, error) { return counting.PowerOfTwo(26) }},
		// flock(27) has 378 transitions: one full span of the
		// span-factored draw plus a 122-transition tail.
		{"flock(27)", func() (*core.Protocol, error) { return counting.FlockOfBirds(27) }},
	}
	scheds := []Scheduler{CountBatched{}, Auto{}}
	const trials = 3
	var got []goldenTrial
	for _, pc := range protos {
		p, err := pc.mk()
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		for _, x := range []int64{1e4, 1e6, 1e8} {
			input, err := p.Input(map[string]int64{"i": x})
			if err != nil {
				t.Fatalf("%s: %v", pc.name, err)
			}
			for _, sched := range scheds {
				name := fmt.Sprintf("%s/%s/x=%d", sched.Name(), pc.name, x)
				for tr := 0; tr < trials; tr++ {
					res, err := Run(p, input, Options{
						Seed:      DeriveSeed(DeriveSeedK(17, x), tr),
						MaxSteps:  math.MaxInt32,
						Scheduler: sched,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got = append(got, goldenTrial{
						Case: name, Trial: tr, Steps: res.Steps, LastChange: res.LastChange,
						Output: res.Output.String(), Final: nonzeroCounts(res.Final),
					})
				}
			}
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	golden := filepath.Join("testdata", "countbatch.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(buf) != string(want) {
		t.Errorf("count-batched trajectories drifted from golden file %s\ngot:\n%s", golden, buf)
	}
}
