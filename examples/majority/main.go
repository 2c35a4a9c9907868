// Majority election: the classical 4-state cancellation protocol
// decides whether candidate A has strictly more initial supporters than
// candidate B, plus a compiled boolean-combination predicate showing
// the spec package's product construction.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/conf"
	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/verify"
)

func main() {
	protocol, err := spec.Majority("A", "B")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(protocol)
	fmt.Println(protocol.Net())

	// Exhaustive verification against the predicate evaluator.
	pred := spec.MajorityPred("A", "B")
	res, err := verify.Range(context.Background(), protocol, func(input conf.Config) bool {
		return pred.Eval(map[string]int64{
			"A": input.GetName("A"),
			"B": input.GetName("B"),
		})
	}, 0, 7, petri.Budget{MaxConfigs: 1 << 18}, 0)
	if err != nil {
		log.Fatal(err)
	}
	if !res.OK() {
		log.Fatalf("verification failed: %+v", res.FirstFailure())
	}
	fmt.Printf("verified: decides A > B for all populations ≤ 7 (%d inputs)\n\n", len(res.Reports))

	// Election night: simulate a few tallies.
	for _, tally := range []struct{ a, b int64 }{{5, 3}, {3, 5}, {4, 4}} {
		input, err := protocol.Input(map[string]int64{"A": tally.a, "B": tally.b})
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.Run(protocol, input, sim.Options{Seed: 99, MaxSteps: 100_000, StablePatience: 2_000})
		if err != nil {
			log.Fatal(err)
		}
		v, _ := r.ConsensusBool()
		fmt.Printf("A=%d B=%d: majority-for-A = %v (steps to consensus %d)\n",
			tally.a, tally.b, v, r.LastChange)
	}

	// Boolean combination via the product construction: "at least 3
	// voters AND an odd number of voters".
	combined := spec.And{
		L: spec.Threshold{Weights: map[string]int64{"v": 1}, C: 3},
		R: spec.Remainder{Weights: map[string]int64{"v": 1}, M: 2, R: 1},
	}
	cp, err := spec.Compile(combined)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiled %v into %d states, %d transitions\n",
		combined, cp.States(), cp.Net().Len())
	for _, v := range []int64{2, 3, 4, 5} {
		input, err := cp.Input(map[string]int64{cp.InitialStates()[0]: v})
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.Run(cp, input, sim.Options{Seed: 5, MaxSteps: 200_000, StablePatience: 3_000})
		if err != nil {
			log.Fatal(err)
		}
		got, _ := r.ConsensusBool()
		fmt.Printf("  v=%d: protocol says %v, predicate says %v\n",
			v, got, combined.Eval(map[string]int64{"v": v}))
	}
}
