package sim

import (
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/spec"
)

// The engine invariant everything rests on: after any sequence of
// fires, every incrementally maintained quantity matches its from-
// scratch reference computation.
func TestEngineMatchesReference(t *testing.T) {
	protos := []func() (*core.Protocol, error){
		func() (*core.Protocol, error) { return counting.Example42(3) },
		func() (*core.Protocol, error) { return counting.FlockOfBirds(6) },
		func() (*core.Protocol, error) { return counting.PowerOfTwo(3) },
		func() (*core.Protocol, error) { return spec.Majority("A", "B") },
	}
	for _, mk := range protos {
		p, err := mk()
		if err != nil {
			t.Fatalf("protocol: %v", err)
		}
		st := NewState(p)
		counts := map[string]int64{}
		for i, s := range p.InitialStates() {
			counts[s] = int64(7 + 3*i)
		}
		input, err := p.Input(counts)
		if err != nil {
			t.Fatalf("input: %v", err)
		}
		if err := st.Reset(input); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		rng := NewRNG(99)
		net := p.Net()
		for step := 0; step < 300; step++ {
			snap := st.Snapshot()
			for ti := 0; ti < net.Len(); ti++ {
				want := instanceWeight(net.At(ti).Pre, snap)
				if got := st.Weight(ti); got != want {
					t.Fatalf("%s step %d: weight(%d) = %v, want %v", p.Name(), step, ti, got, want)
				}
			}
			if got, want := st.Output(), p.OutputOf(snap); got != want {
				t.Fatalf("%s step %d: Output = %v, want %v", p.Name(), step, got, want)
			}
			if got, want := st.Agents(), snap.Agents(); got != want {
				t.Fatalf("%s step %d: Agents = %d, want %d", p.Name(), step, got, want)
			}
			ti, ok := st.Sample(rng)
			if !ok {
				break
			}
			if !st.Fire(ti) {
				t.Fatalf("%s step %d: sampled transition %d disabled", p.Name(), step, ti)
			}
		}
	}
}

func TestEngineFireDisabled(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	st := NewState(p)
	input, err := p.Input(map[string]int64{"i": 1})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	if err := st.Reset(input); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	// A single agent enables nothing; firing must refuse and leave the
	// configuration untouched.
	before := st.Snapshot()
	for ti := 0; ti < p.Net().Len(); ti++ {
		if st.Fire(ti) {
			t.Fatalf("disabled transition %d fired", ti)
		}
	}
	if !st.Snapshot().Equal(before) {
		t.Error("refused fire mutated the configuration")
	}
	if _, ok := st.Sample(NewRNG(1)); ok {
		t.Error("Sample found an enabled transition in a deadlocked configuration")
	}
}

func TestEngineResetReuse(t *testing.T) {
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 4})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	st := NewState(p)
	run := func() conf.Config {
		if err := st.Reset(input); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		rng := NewRNG(5)
		for i := 0; i < 200; i++ {
			ti, ok := st.Sample(rng)
			if !ok {
				break
			}
			st.Fire(ti)
		}
		return st.Snapshot()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Errorf("reused state diverged: %v vs %v", a, b)
	}
}

func TestEngineRejectsWrongSpace(t *testing.T) {
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	if err := NewState(p).Reset(conf.New(conf.MustSpace("zz"))); err == nil {
		t.Error("wrong-space input accepted")
	}
}

// ApplyAggregate must be extensionally equal to firing the same
// multiset of transitions one at a time: same counts, weights, agents,
// occupancy-derived output and total weight.
func TestEngineApplyAggregateMatchesSequentialFires(t *testing.T) {
	protos := []func() (*core.Protocol, error){
		func() (*core.Protocol, error) { return counting.FlockOfBirds(6) },
		func() (*core.Protocol, error) { return counting.PowerOfTwo(3) },
		func() (*core.Protocol, error) { return spec.Majority("A", "B") },
	}
	for _, mk := range protos {
		p, err := mk()
		if err != nil {
			t.Fatalf("protocol: %v", err)
		}
		counts := map[string]int64{}
		for i, s := range p.InitialStates() {
			counts[s] = int64(40 + 9*i)
		}
		input, err := p.Input(counts)
		if err != nil {
			t.Fatalf("input: %v", err)
		}
		seq, agg := NewState(p), NewState(p)
		if err := seq.Reset(input); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		if err := agg.Reset(input); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		// Generate a feasible batch by running the sequential engine,
		// recording how often each transition fired.
		rng := NewRNG(7)
		fires := make([]int64, p.Net().Len())
		for step := 0; step < 120; step++ {
			ti, ok := seq.Sample(rng)
			if !ok {
				break
			}
			seq.Fire(ti)
			fires[ti]++
		}
		disp := make([]int64, p.Space().Len())
		if !agg.ApplyAggregate(fires, disp) {
			t.Fatalf("%s: feasible aggregate rejected", p.Name())
		}
		if !agg.Snapshot().Equal(seq.Snapshot()) {
			t.Fatalf("%s: aggregate counts %v, sequential %v", p.Name(), agg.Snapshot(), seq.Snapshot())
		}
		if agg.Agents() != seq.Agents() {
			t.Errorf("%s: aggregate agents %d, sequential %d", p.Name(), agg.Agents(), seq.Agents())
		}
		if agg.Output() != seq.Output() {
			t.Errorf("%s: aggregate output %v, sequential %v", p.Name(), agg.Output(), seq.Output())
		}
		for ti := 0; ti < p.Net().Len(); ti++ {
			if agg.Weight(ti) != seq.Weight(ti) {
				t.Errorf("%s: weight(%d) aggregate %v, sequential %v", p.Name(), ti, agg.Weight(ti), seq.Weight(ti))
			}
		}
		if totalWeight(agg) != totalWeight(seq) {
			t.Errorf("%s: total weight aggregate %v, sequential %v", p.Name(), totalWeight(agg), totalWeight(seq))
		}
	}
}

// An aggregate that would drive a count negative must be rejected
// wholesale, leaving every maintained structure untouched.
func TestEngineApplyAggregateRejectsNegative(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatalf("FlockOfBirds: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 5})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	st := NewState(p)
	if err := st.Reset(input); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	before := st.Snapshot()
	agentsBefore, outBefore, totalBefore := st.Agents(), st.Output(), totalWeight(st)
	// Fire the first i-consuming merge far more often than 5 agents allow.
	fires := make([]int64, p.Net().Len())
	fires[0] = 100
	disp := make([]int64, p.Space().Len())
	if st.ApplyAggregate(fires, disp) {
		t.Fatal("infeasible aggregate accepted")
	}
	if !st.Snapshot().Equal(before) {
		t.Errorf("rejected aggregate mutated counts: %v -> %v", before, st.Snapshot())
	}
	if st.Agents() != agentsBefore || st.Output() != outBefore || totalWeight(st) != totalBefore {
		t.Error("rejected aggregate mutated derived state")
	}
}

// totalWeight returns the exact sum of st's instance weights,
// rebuilding the running total first.
func totalWeight(st *State) float64 {
	st.rebuild()
	return st.total
}

func TestEngineTotalWeight(t *testing.T) {
	p, err := counting.Example42(2)
	if err != nil {
		t.Fatalf("Example42: %v", err)
	}
	input, err := p.Input(map[string]int64{"i": 3})
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	st := NewState(p)
	if err := st.Reset(input); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var want float64
	snap := st.Snapshot()
	for ti := 0; ti < p.Net().Len(); ti++ {
		want += instanceWeight(p.Net().At(ti).Pre, snap)
	}
	if got := totalWeight(st); got != want {
		t.Errorf("total weight = %v, want %v", got, want)
	}
}

// The deferred Fenwick rebuild is invisible: a state whose aggregates
// leave the tree stale must agree bit for bit with a twin that resyncs
// eagerly after every aggregate — in every weight and the total after
// each step, and in every Sample under equal generators. Random
// aggregates interleave with sampled steps and with Fires that reach a
// stale tree before any Sample does.
func TestApplyAggregateLazyTreeMatchesResync(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*core.Protocol, error)
		x    int64
	}{
		{"flock(8)", func() (*core.Protocol, error) { return counting.FlockOfBirds(8) }, 5_000},
		{"power2(5)", func() (*core.Protocol, error) { return counting.PowerOfTwo(5) }, 3_000},
	}
	for _, c := range cases {
		p, err := c.mk()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		input, err := p.Input(map[string]int64{"i": c.x})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lazy, eager := NewState(p), NewState(p)
		if err := lazy.Reset(input); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := eager.Reset(input); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		same := func(round int, what string) {
			t.Helper()
			for ti := range lazy.weights {
				if math.Float64bits(lazy.weights[ti]) != math.Float64bits(eager.weights[ti]) {
					t.Fatalf("%s round %d after %s: weight(%d) lazy %v, eager %v",
						c.name, round, what, ti, lazy.weights[ti], eager.weights[ti])
				}
			}
			if math.Float64bits(lazy.total) != math.Float64bits(eager.total) {
				t.Fatalf("%s round %d after %s: total lazy %v, eager %v", c.name, round, what, lazy.total, eager.total)
			}
		}
		draws := NewRNG(3)
		rl, re := NewRNG(11), NewRNG(11)
		fires := make([]int64, p.Net().Len())
		disp := make([]int64, p.Space().Len())
		aggregates := 0
		for round := 0; round < 400 && eager.total > 0; round++ {
			switch draws.Intn(3) {
			case 0:
				b := 1 + draws.Int63n(lazy.Agents()/32+1)
				draws.Multinomial(b, lazy.weights, fires)
				okL, okE := lazy.ApplyAggregate(fires, disp), eager.ApplyAggregate(fires, disp)
				if okL != okE {
					t.Fatalf("%s round %d: aggregate accepted lazy %v, eager %v", c.name, round, okL, okE)
				}
				if okE {
					eager.Resync()
					aggregates++
				}
				same(round, "aggregate")
			case 1:
				for s := draws.Intn(20); s >= 0; s-- {
					tl, okL := lazy.Sample(rl)
					te, okE := eager.Sample(re)
					if tl != te || okL != okE {
						t.Fatalf("%s round %d: Sample lazy (%d, %v), eager (%d, %v)", c.name, round, tl, okL, te, okE)
					}
					if !okE {
						break
					}
					lazy.Fire(tl)
					eager.Fire(te)
				}
				same(round, "sampled steps")
			default:
				n := len(fires)
				for off, ti := draws.Intn(n), 0; ti < n; ti++ {
					if k := (off + ti) % n; eager.weights[k] > 0 {
						lazy.Fire(k)
						eager.Fire(k)
						break
					}
				}
				same(round, "fire")
			}
		}
		if aggregates < 50 {
			t.Fatalf("%s: only %d aggregates accepted", c.name, aggregates)
		}
	}
}
