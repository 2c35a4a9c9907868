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
	"repro/internal/petri"
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
	checkGolden(t, "countbatch.golden.json", got)
}

// checkGolden compares the trials with testdata/<file> byte for byte,
// rewriting the file first under -update.
func checkGolden(t *testing.T, file string, got []goldenTrial) {
	t.Helper()
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	golden := filepath.Join("testdata", file)
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
		t.Errorf("trajectories drifted from golden file %s\ngot:\n%s", golden, buf)
	}
}

// rule is one transition of a test net: its name, pre and post.
type rule struct {
	name      string
	pre, post conf.Config
}

// leaderless builds a protocol without leaders from its rules.
func leaderless(t *testing.T, name string, space *conf.Space, initial []string, gamma map[string]core.Output, rules ...rule) *core.Protocol {
	t.Helper()
	trans := make([]petri.Transition, len(rules))
	for i, r := range rules {
		tr, err := petri.NewTransition(r.name, r.pre, r.post)
		if err != nil {
			t.Fatal(err)
		}
		trans[i] = tr
	}
	net, err := petri.New(space, trans)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProtocol(name, net, conf.New(space), initial, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mixedNet builds a deadlock-free net over a, b, c whose transitions
// cover every precondition shape the engine distinguishes: a single
// state taken k ≥ 3 times (3a), a generic multiset (a + 2b), a pair
// (b + c), a twin (2c) and a single agent (c). Every transition keeps
// the agent count, and some transition is enabled from any
// population of at least 3 agents.
func mixedNet(t *testing.T) *core.Protocol {
	space := conf.MustSpace("a", "b", "c")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	return leaderless(t, "mixed", space, []string{"a"},
		map[string]core.Output{"a": core.Out0, "b": core.OutStar, "c": core.Out1},
		rule{"single3", u("a").Scale(3), u("b").Scale(2).Add(u("c"))},
		rule{"generic", u("a").Add(u("b").Scale(2)), u("c").Scale(3)},
		rule{"pair", u("b").Add(u("c")), u("a").Scale(2)},
		rule{"twin", u("c").Scale(2), u("a").Add(u("b"))},
		rule{"single1", u("c"), u("a")},
	)
}

// cycleNet builds the conservative 2→2 net a + b → 2c, 2c → a + b,
// which never deadlocks from a = b ≥ 1: its runs go on until MaxSteps,
// past the engine's periodic exact rebuild.
func cycleNet(t *testing.T) *core.Protocol {
	space := conf.MustSpace("a", "b", "c")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	return leaderless(t, "cycle", space, []string{"a", "b"},
		map[string]core.Output{"a": core.Out0, "b": core.Out0, "c": core.Out1},
		rule{"meet", u("a").Add(u("b")), u("c").Scale(2)},
		rule{"split", u("c").Scale(2), u("a").Add(u("b"))},
	)
}

// TestWeightedTrajectoriesGolden pins the sampled trajectories of the
// per-interaction schedulers byte for byte: every trial's steps, last
// output change, output and final counts under Weighted, and under
// UniformPairs wherever the net is conservative 2→2. The instances are
// the weighted sweep's protocols at 16–512 agents, one run of 40 000
// fires (longer than rebuildEvery, so the periodic exact rebuild is
// on the path) and a net whose preconditions take the kindSingle k ≥ 3
// and generic fallbacks of the weight computation. Run with -update
// to rewrite it.
func TestWeightedTrajectoriesGolden(t *testing.T) {
	type instance struct {
		name     string
		p        *core.Protocol
		inputs   []map[string]int64
		maxSteps int
	}
	sizes := func(xs ...int64) []map[string]int64 {
		var out []map[string]int64
		for _, x := range xs {
			out = append(out, map[string]int64{"i": x})
		}
		return out
	}
	var insts []instance
	for _, pc := range []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"flock(4)", func() (*core.Protocol, error) { return counting.FlockOfBirds(4) }},
		{"flock(8)", func() (*core.Protocol, error) { return counting.FlockOfBirds(8) }},
		{"power2(3)", func() (*core.Protocol, error) { return counting.PowerOfTwo(3) }},
		{"power2(5)", func() (*core.Protocol, error) { return counting.PowerOfTwo(5) }},
		{"example42(4)", func() (*core.Protocol, error) { return counting.Example42(4) }},
	} {
		p, err := pc.mk()
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		insts = append(insts, instance{pc.name, p, sizes(16, 97, 512), 0})
	}
	insts = append(insts,
		instance{"cycle", cycleNet(t), []map[string]int64{{"a": 60, "b": 60}}, 40000},
		instance{"mixed", mixedNet(t), []map[string]int64{{"a": 7}, {"a": 90}}, 3000},
	)
	const trials = 3
	var got []goldenTrial
	for _, in := range insts {
		for _, counts := range in.inputs {
			input, err := in.p.Input(counts)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			var x int64
			for _, n := range counts {
				x += n
			}
			for _, sched := range []Scheduler{Weighted{}, UniformPairs{}} {
				if _, err := sched.Attach(NewState(in.p)); err != nil {
					continue // not conservative 2→2
				}
				name := fmt.Sprintf("%s/%s/x=%d", sched.Name(), in.name, x)
				for tr := 0; tr < trials; tr++ {
					res, err := Run(in.p, input, Options{
						Seed:      DeriveSeed(DeriveSeedK(23, x), tr),
						MaxSteps:  in.maxSteps,
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
	checkGolden(t, "weighted.golden.json", got)
}
