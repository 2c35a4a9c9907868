// Package repro's top-level benchmarks regenerate every experiment of
// DESIGN.md's index (E1–E10): one benchmark per table/figure-equivalent
// claim of the paper, timing the full workload that produces the
// table. Run with
//
//	go test -bench=. -benchmem
//
// cmd/ppbench prints the corresponding tables.
package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/experiments"
	"repro/internal/hilbert"
	"repro/internal/petri"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/verify"
)

func runTable(b *testing.B, fn func() (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkE1StateCounts regenerates the construction trade-off table
// (Section 4 + [6]): states/width/leaders per counting construction.
func BenchmarkE1StateCounts(b *testing.B) { runTable(b, experiments.E1StateCounts) }

// BenchmarkE1bMachine regenerates the repeated-squaring machine table
// underlying the Θ(log log n) family.
func BenchmarkE1bMachine(b *testing.B) { runTable(b, experiments.MachineTable) }

// BenchmarkE2Theorem43 evaluates the headline Theorem 4.3 bound for
// d = 1..10.
func BenchmarkE2Theorem43(b *testing.B) { runTable(b, experiments.E2Theorem43) }

// BenchmarkE3Gap regenerates the closed-gap curves (Corollary 4.4 lower
// bound vs the tower upper bound).
func BenchmarkE3Gap(b *testing.B) { runTable(b, experiments.E3Gap) }

// BenchmarkE4VerifyCost measures exhaustive stable-computation
// verification across constructions and populations.
func BenchmarkE4VerifyCost(b *testing.B) { runTable(b, experiments.E4VerifyCost) }

// BenchmarkE5Rackoff measures shortest covering words against the
// Lemma 5.3 bound.
func BenchmarkE5Rackoff(b *testing.B) { runTable(b, experiments.E5Rackoff) }

// BenchmarkE6Pottier measures Hilbert-basis norms against the Pottier
// bound behind Lemma 7.3.
func BenchmarkE6Pottier(b *testing.B) { runTable(b, experiments.E6Pottier) }

// BenchmarkE7Euler measures Lemma 7.2 total-cycle lengths against
// |E|·|S|.
func BenchmarkE7Euler(b *testing.B) { runTable(b, experiments.E7Euler) }

// BenchmarkE8Bottom runs the constructive Theorem 6.1
// bottom-configuration search with certificate verification.
func BenchmarkE8Bottom(b *testing.B) { runTable(b, experiments.E8Bottom) }

// BenchmarkE9Stabilized measures the minimal Lemma 5.4 threshold.
func BenchmarkE9Stabilized(b *testing.B) { runTable(b, experiments.E9Stabilized) }

// BenchmarkE10Convergence measures simulated convergence across the
// constructions.
func BenchmarkE10Convergence(b *testing.B) { runTable(b, experiments.E10Convergence) }

// BenchmarkE11LargeNBatch measures the count-batched large-population
// runs (10⁸–10⁹ agents per case).
func BenchmarkE11LargeNBatch(b *testing.B) { runTable(b, experiments.E11LargeNBatch) }

// --- micro-benchmarks for the hot substrate paths ---

// BenchmarkReachClosure measures raw closure construction on
// Example 4.2 with 8 agents.
func BenchmarkReachClosure(b *testing.B) {
	p, err := counting.Example42(3)
	if err != nil {
		b.Fatal(err)
	}
	from := p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 5}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := p.Net().Reach(from, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil {
			b.Fatal(err)
		}
		if !rs.Complete {
			b.Fatal("incomplete closure")
		}
	}
}

// BenchmarkReachChain measures a one-shot Reach of E8's pump net
// (a → a + b) at a 2¹⁸ budget: 2¹⁸ BFS levels of width 1, the shape on
// which per-level overhead in the BFS driver shows.
func BenchmarkReachChain(b *testing.B) {
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	pump, err := petri.NewTransition("pump", u("a"), u("a").Add(u("b")))
	if err != nil {
		b.Fatal(err)
	}
	net, err := petri.New(space, []petri.Transition{pump})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := net.Reach(u("a"), petri.Budget{MaxConfigs: 1 << 18})
		if !errors.Is(err, petri.ErrBudget) || rs.Len() != 1<<18 {
			b.Fatalf("closure of %d nodes, err %v; want the 2^18 budget exhausted", rs.Len(), err)
		}
	}
}

// BenchmarkReachBottomPR2Budget pins the PR2-era E8 workload — the
// three original instances at the original MaxConfigs = 1<<16 budget —
// so the closure-substrate speedup stays measurable at equal work even
// though E8 itself now runs a 4× budget and one more instance.
func BenchmarkReachBottomPR2Budget(b *testing.B) {
	type tc struct {
		net *petri.Net
		rho conf.Config
	}
	var cases []tc
	{
		p, err := counting.Example42(2)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, tc{p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 3}))})
	}
	{
		space := conf.MustSpace("a", "b")
		u := func(n string) conf.Config { return conf.MustUnit(space, n) }
		pump, err := petri.NewTransition("pump", u("a"), u("a").Add(u("b")))
		if err != nil {
			b.Fatal(err)
		}
		net, err := petri.New(space, []petri.Transition{pump})
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, tc{net, u("a")})
	}
	{
		p, err := counting.FlockOfBirds(3)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, tc{p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 4}))})
	}
	opts := core.ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 1 << 16}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			if _, err := core.ReachBottom(c.net, c.rho, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVerifyRange measures the exhaustive range verifier — the E4
// workload shape — on Example 4.2 with populations up to 8: every
// input's closure, two CSR reachability passes each, fanned out to the
// worker pool.
func BenchmarkVerifyRange(b *testing.B) {
	p, err := counting.Example42(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := verify.Counting(p, "i", 3, 8, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil || !res.OK() {
			b.Fatalf("result %+v, %v", res, err)
		}
	}
}

// BenchmarkBackwardCoverability measures the backward algorithm on the
// flock net.
func BenchmarkBackwardCoverability(b *testing.B) {
	p, err := counting.FlockOfBirds(6)
	if err != nil {
		b.Fatal(err)
	}
	from := p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 8}))
	target := conf.MustFromMap(p.Space(), map[string]int64{"T": 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := p.Net().Coverable(from, target, 1<<16)
		if err != nil || !ok {
			b.Fatalf("coverable = %v, %v", ok, err)
		}
	}
}

// BenchmarkHilbertBasis measures the Contejean–Devie completion on the
// Lemma 7.3-style system 3x + y = 2z + 4w.
func BenchmarkHilbertBasis(b *testing.B) {
	sys, err := hilbert.NewSystem([][]int64{{3, 1, -2, -4}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis, err := sys.MinimalSolutions(hilbert.Options{})
		if err != nil || len(basis) == 0 {
			b.Fatalf("basis = %v, %v", basis, err)
		}
	}
}

// BenchmarkSimulation measures scheduler throughput on the flock
// protocol with 64 agents.
func BenchmarkSimulation(b *testing.B) {
	p, err := counting.FlockOfBirds(8)
	if err != nil {
		b.Fatal(err)
	}
	input, err := p.Input(map[string]int64{"i": 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(p, input, sim.Options{Seed: int64(i), MaxSteps: 50_000, StablePatience: 1_000})
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := res.ConsensusBool(); !ok || !v {
			b.Fatalf("unexpected outcome %+v", res)
		}
	}
}

// --- sweep benchmarks: the simulation-bound experiment workloads ---

// BenchmarkSweepFlock measures the full sweep pipeline at default
// populations: flock(8) convergence statistics across four population
// sizes, eight trials each, on the incremental engine.
func BenchmarkSweepFlock(b *testing.B) {
	p, err := counting.FlockOfBirds(8)
	if err != nil {
		b.Fatal(err)
	}
	xs := []int64{16, 32, 64, 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := sim.Sweep(context.Background(), p, "i", xs, func(x int64) bool { return x >= 8 }, 8,
			sim.Options{Seed: 42, MaxSteps: 400_000, StablePatience: 2_000})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Stats.Correct != pt.Stats.Trials {
				b.Fatalf("x=%d: %d/%d correct", pt.X, pt.Stats.Correct, pt.Stats.Trials)
			}
		}
	}
}

// BenchmarkShardRunWeighted times the sweep pipeline's weighted job
// shape: a 2-shard plan of flock(6) over two sizes × 8 trials at trial
// block 2, each shard run in-process on the default worker count. Run
// with -cpu 1,2: each shard's cells share one trial pool, so two CPUs
// must read faster than one.
func BenchmarkShardRunWeighted(b *testing.B) {
	sw := shard.SweepSpec{
		Protocol: "flock", Param: 6, InputState: "i", Sizes: []int64{96, 320},
		Trials: 8, Seed: 11, MaxSteps: 1 << 24,
	}
	m, err := shard.PlanCostBlock(sw, 2, shard.DefaultCost(sw.Scheduler), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range m.Shards {
			a, err := shard.Run(context.Background(), m, sp.ID, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, pt := range a.Points {
				if pt.Stats.Correct != pt.Stats.Trials {
					b.Fatalf("x=%d: %d/%d correct", pt.X, pt.Stats.Correct, pt.Stats.Trials)
				}
			}
		}
	}
}

// BenchmarkSweepSchedulers compares the schedulers on one
// RunMany workload: flock(8) with 64 agents.
func BenchmarkSweepSchedulers(b *testing.B) {
	p, err := counting.FlockOfBirds(8)
	if err != nil {
		b.Fatal(err)
	}
	input, err := p.Input(map[string]int64{"i": 64})
	if err != nil {
		b.Fatal(err)
	}
	for _, sched := range []sim.Scheduler{sim.Weighted{}, sim.UniformPairs{}, sim.CountBatched{}} {
		b.Run(sched.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats, err := sim.RunMany(context.Background(), p, input, true, 8, sim.Options{
					Seed: 42, MaxSteps: 400_000, StablePatience: 2_000, Scheduler: sched,
				})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Correct != stats.Trials {
					b.Fatalf("%d/%d correct", stats.Correct, stats.Trials)
				}
			}
		})
	}
}

// flipFlopInput builds the deadlock-free throughput workload: the
// flip-flop net 2a ⇄ 2b keeps both transitions recurrently enabled
// from any even population, so a run executes exactly MaxSteps
// interactions.
func flipFlopInput(b *testing.B, agents int64) (*core.Protocol, conf.Config) {
	b.Helper()
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	mk := func(name string, pre, post conf.Config) petri.Transition {
		tr, err := petri.NewTransition(name, pre, post)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	net, err := petri.New(space, []petri.Transition{
		mk("ab", u("a").Scale(2), u("b").Scale(2)),
		mk("ba", u("b").Scale(2), u("a").Scale(2)),
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProtocol("flipflop", net, conf.New(space), []string{"a"},
		map[string]core.Output{"a": core.Out0, "b": core.Out0})
	if err != nil {
		b.Fatal(err)
	}
	input, err := p.Input(map[string]int64{"a": agents})
	if err != nil {
		b.Fatal(err)
	}
	return p, input
}

// BenchmarkStepThroughput measures the raw per-interaction cost of the
// incremental engine: one long weighted run on the flip-flop net,
// b.N interactions per op, so ns/op IS ns/step.
func BenchmarkStepThroughput(b *testing.B) {
	p, input := flipFlopInput(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := sim.Run(p, input, sim.Options{Seed: 9, MaxSteps: b.N})
	if err != nil {
		b.Fatal(err)
	}
	if res.Steps != b.N {
		b.Fatalf("executed %d steps, want %d", res.Steps, b.N)
	}
}

// BenchmarkStepThroughputLargeN compares amortized ns/interaction at
// n = 10⁶ agents: Weighted pays the full per-interaction sampling path
// while CountBatched amortizes one O(|T|) aggregate over up to
// millions of interactions — the headline speedup of the count-based
// batch regime (the acceptance bar is ≥ 10×; measured is orders of
// magnitude beyond it).
func BenchmarkStepThroughputLargeN(b *testing.B) {
	for _, sched := range []sim.Scheduler{sim.Weighted{}, sim.CountBatched{}} {
		b.Run(sched.Name(), func(b *testing.B) {
			p, input := flipFlopInput(b, 1_000_000)
			b.ReportAllocs()
			b.ResetTimer()
			res, err := sim.Run(p, input, sim.Options{Seed: 9, MaxSteps: b.N, Scheduler: sched})
			if err != nil {
				b.Fatal(err)
			}
			if res.Steps != b.N {
				b.Fatalf("executed %d steps, want %d", res.Steps, b.N)
			}
		})
	}
}

// BenchmarkBinomial prices one binomial draw across the means the
// count-batched multinomial asks for: the inversion branch from np ≪ 1
// (almost always k = 0) up to np = 9, and the BTRS branch from the
// cutoff np = 10 up to 10⁷, all at n = 2³⁰.
func BenchmarkBinomial(b *testing.B) {
	const n = 1 << 30
	for _, np := range []float64{0.01, 1, 9, 10, 1e4, 1e7} {
		b.Run(fmt.Sprintf("np=%g", np), func(b *testing.B) {
			rng := sim.NewRNG(5)
			p := np / n
			var sum int64
			for i := 0; i < b.N; i++ {
				sum += rng.Binomial(n, p)
			}
			if sum < 0 {
				b.Fatal("negative draw")
			}
		})
	}
}

// BenchmarkCountBatchedStep prices one count-batched step — select the
// batch, draw its multinomial, apply the aggregate — on flock(8) and
// power2(26) at 10⁷ agents, restarting the run whenever it deadlocks.
// ns/op is per step; ns/interaction amortizes it over the batch.
func BenchmarkCountBatchedStep(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func() (*core.Protocol, error)
	}{
		{"flock(8)", func() (*core.Protocol, error) { return counting.FlockOfBirds(8) }},
		{"power2(26)", func() (*core.Protocol, error) { return counting.PowerOfTwo(26) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := c.mk()
			if err != nil {
				b.Fatal(err)
			}
			input, err := p.Input(map[string]int64{"i": 10_000_000})
			if err != nil {
				b.Fatal(err)
			}
			st := sim.NewState(p)
			stepper, err := sim.CountBatched{}.Attach(st)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Reset(input); err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(3)
			var interactions int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fired, ok := stepper.Step(rng, math.MaxInt32)
				interactions += int64(fired)
				if !ok {
					if err := st.Reset(input); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(interactions+1), "ns/interaction")
		})
	}
}

// BenchmarkVerifyInput measures a single-input verification of
// Example 4.2 with 9 agents total.
func BenchmarkVerifyInput(b *testing.B) {
	p, err := counting.Example42(3)
	if err != nil {
		b.Fatal(err)
	}
	input := conf.MustFromMap(p.Space(), map[string]int64{"i": 6})
	pred := verify.CountingPredicate("i", 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Input(p, input, pred, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil || !rep.OK {
			b.Fatalf("report %+v, %v", rep, err)
		}
	}
}

// BenchmarkTheorem43 measures big-integer bound evaluation.
func BenchmarkTheorem43(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := bounds.Theorem43MaxN(2, 2, 2)
		if !m.IsExact() {
			b.Fatal("d=2 bound should be exact")
		}
	}
}
