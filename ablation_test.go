package repro

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/counting"
	"repro/internal/petri"
)

// Ablation: three ways to decide coverability on the same instance —
// the backward algorithm (what the library uses for yes/no queries),
// the Karp–Miller tree (computes the whole coverability set first) and
// the forward shortest-witness search (also returns a minimal witness).
// The benchmarks quantify the design choice documented in DESIGN.md:
// backward for decisions, forward search only when the witness length
// itself is the measurement (E5).

func coverInstance(b *testing.B) (*petri.Net, conf.Config, conf.Config) {
	b.Helper()
	p, err := counting.FlockOfBirds(5)
	if err != nil {
		b.Fatal(err)
	}
	from := p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 7}))
	target := conf.MustFromMap(p.Space(), map[string]int64{"T": 3})
	return p.Net(), from, target
}

func BenchmarkAblationCoverBackward(b *testing.B) {
	net, from, target := coverInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := net.Coverable(from, target, 1<<16)
		if err != nil || !ok {
			b.Fatalf("coverable = %v, %v", ok, err)
		}
	}
}

func BenchmarkAblationCoverKarpMiller(b *testing.B) {
	net, from, target := coverInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := net.KarpMiller(from, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil {
			b.Fatal(err)
		}
		if !tree.Covers(target) {
			b.Fatal("KM misses coverable target")
		}
	}
}

func BenchmarkAblationCoverForwardWitness(b *testing.B) {
	net, from, target := coverInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := net.ShortestCoveringWord(from, target, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil || w == nil {
			b.Fatalf("witness = %v, %v", w, err)
		}
	}
}

// Ablation: closure-substrate dedup — the seed-era string-keyed map
// (conf.Config.Key materialized per lookup, one Config allocation per
// attempted fire, per-node Clone semantics) against the arena-backed
// CountSet (flat int64 arena, open-addressing table over integer
// hashes, fire-into-scratch). Quantifies the dedup choice of the
// closure engine the same way the backward-vs-forward ablation above
// quantifies the coverability choice. Both run the identical BFS on
// the same instance. (The node/edge-level equivalence of the two
// substrates is pinned separately by the property tests in
// internal/petri/reach_ref_test.go, against their own copy of the
// seed-era loop; this file's copy only times it and checks sizes.)

// stringMapClosure is the seed-era closure loop, kept verbatim-shaped.
func stringMapClosure(net *petri.Net, from conf.Config, maxConfigs int) (int, error) {
	configs := []conf.Config{from}
	index := map[string]int{from.Key(): 0}
	for head := 0; head < len(configs); head++ {
		cur := configs[head]
		for ti := 0; ti < net.Len(); ti++ {
			next, ok := net.At(ti).Fire(cur)
			if !ok {
				continue
			}
			if _, seen := index[next.Key()]; !seen {
				if len(configs) >= maxConfigs {
					return len(configs), petri.ErrBudget
				}
				index[next.Key()] = len(configs)
				configs = append(configs, next)
			}
		}
	}
	return len(configs), nil
}

func closureSubstrateInstance(b *testing.B) (*petri.Net, conf.Config) {
	b.Helper()
	p, err := counting.FlockOfBirds(6)
	if err != nil {
		b.Fatal(err)
	}
	return p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 9}))
}

func BenchmarkAblationClosureStringMap(b *testing.B) {
	net, from := closureSubstrateInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := stringMapClosure(net, from, 1<<18)
		if err != nil || n == 0 {
			b.Fatalf("closure %d, %v", n, err)
		}
	}
}

func BenchmarkAblationClosureArenaHash(b *testing.B) {
	net, from := closureSubstrateInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := net.Reach(from, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil || rs.Len() == 0 {
			b.Fatalf("closure %d, %v", rs.Len(), err)
		}
	}
}

// The two substrates must agree on closure size — tested, not just
// timed (the full node/edge equivalence is property-tested in
// internal/petri).
func TestClosureSubstratesAgree(t *testing.T) {
	p, err := counting.FlockOfBirds(5)
	if err != nil {
		t.Fatal(err)
	}
	net := p.Net()
	for _, x := range []int64{3, 5, 7, 9} {
		from := p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": x}))
		want, err := stringMapClosure(net, from, 1<<18)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := net.Reach(from, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() != want {
			t.Errorf("x=%d: arena closure %d nodes, string-map %d", x, rs.Len(), want)
		}
	}
}

// The three coverability deciders must agree — tested, not just timed.
func TestCoverabilityDecidersAgree(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatal(err)
	}
	net := p.Net()
	from := p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 5}))
	targets := []map[string]int64{
		{"T": 1},
		{"T": 5},
		{"T": 6},  // more than the population: not coverable
		{"v3": 1}, // value 3 reachable
		{"i": 6},  // more i than provided: not coverable
	}
	for _, tm := range targets {
		target := conf.MustFromMap(p.Space(), tm)
		back, err := net.Coverable(from, target, 1<<16)
		if err != nil {
			t.Fatalf("backward %v: %v", target, err)
		}
		tree, err := net.KarpMiller(from, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil {
			t.Fatalf("KM: %v", err)
		}
		km := tree.Covers(target)
		w, err := net.ShortestCoveringWord(from, target, petri.Budget{MaxConfigs: 1 << 18})
		if err != nil {
			t.Fatalf("forward %v: %v", target, err)
		}
		fwd := w != nil
		if back != km || km != fwd {
			t.Errorf("target %v: backward=%v karp-miller=%v forward=%v", target, back, km, fwd)
		}
	}
}
