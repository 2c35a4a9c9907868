package shard

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Merged is the fan-in result: exactly the []SweepPoint a
// single-process sim.Sweep over the same spec would have produced,
// point for point and bit for bit. It deliberately carries no host
// metadata — the merged document is a pure function of the sweep spec,
// so two merges of differently-sharded runs are byte-identical.
type Merged struct {
	Schema int              `json:"schema"`
	Sweep  SweepSpec        `json:"sweep"`
	Points []sim.SweepPoint `json:"points"`
}

// Merge folds partial artifacts into the single-process sweep result.
// It is the strict form of the anytime merge: CollectPartial checks
// that every artifact carries a known schema and the same sweep spec,
// checkTiling that for every size the partial trial ranges tile
// [0, Trials) exactly — overlapping shards (a shard run twice, or two
// plans mixed) and missing shards are reported by size and range
// rather than silently mis-aggregated — and MergePartial, with no stop
// rule, does the fold.
func Merge(arts []*Artifact) (*Merged, error) {
	sw, points, err := CollectPartial(arts, nil)
	if err != nil {
		return nil, err
	}
	byX := make(map[int64][]Cell, len(sw.Sizes))
	for _, pt := range points {
		byX[pt.X] = append(byX[pt.X], Cell{X: pt.X, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi})
	}
	for _, x := range sw.Sizes {
		if err := checkTiling(x, byX[x], sw.Trials); err != nil {
			return nil, err
		}
	}
	am, err := MergePartial(sw, points, sim.StopRule{})
	if err != nil {
		return nil, err
	}
	out := &Merged{Schema: am.Schema, Sweep: sw, Points: make([]sim.SweepPoint, len(am.Points))}
	for i, pt := range am.Points {
		out.Points[i] = sim.SweepPoint{X: pt.X, Stats: pt.Stats}
	}
	return out, nil
}

// checkTiling verifies that the cells' trial ranges partition
// [0, trials) exactly: no overlap, no gap, no out-of-bounds range.
func checkTiling(x int64, cells []Cell, trials int) error {
	if len(cells) == 0 {
		return fmt.Errorf("shard: size %d has no partial results", x)
	}
	sorted := make([]Cell, len(cells))
	copy(sorted, cells)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].TrialLo != sorted[j].TrialLo {
			return sorted[i].TrialLo < sorted[j].TrialLo
		}
		return sorted[i].TrialHi < sorted[j].TrialHi
	})
	next := 0
	for _, c := range sorted {
		if c.TrialLo < 0 || c.TrialHi > trials || c.TrialLo >= c.TrialHi {
			return fmt.Errorf("shard: size %d has invalid trial range [%d,%d) of %d trials",
				x, c.TrialLo, c.TrialHi, trials)
		}
		if c.TrialLo < next {
			return fmt.Errorf("shard: size %d trials [%d,%d) overlap an earlier range ending at %d (shard run twice, or plans mixed?)",
				x, c.TrialLo, c.TrialHi, next)
		}
		if c.TrialLo > next {
			return fmt.Errorf("shard: size %d missing trials [%d,%d)", x, next, c.TrialLo)
		}
		next = c.TrialHi
	}
	if next != trials {
		return fmt.Errorf("shard: size %d missing trials [%d,%d)", x, next, trials)
	}
	return nil
}
