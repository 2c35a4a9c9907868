package shard

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/hostmeta"
	"repro/internal/sim"
)

// referenceRunResumable is the cell-at-a-time definition of the
// executor, kept only as the differential oracle for runResumable's
// waves: per cell, in plan order, load a verified partial, else skip
// when the stop rule already holds on the size's folded prefix, else
// run the cell alone through sim.SweepRange and persist it. The
// executor must report the same points and the same counters.
func referenceRunResumable(ctx context.Context, m *Manifest, shardID string, workers int, dir string, rule sim.StopRule) (*Artifact, Counters, error) {
	var counters Counters
	env := newQueueEnv(nil, 0, 0, &counters)
	spec, err := m.Shard(shardID)
	if err != nil {
		return nil, counters, err
	}
	sw := m.Sweep
	p, n, err := sw.Build()
	if err != nil {
		return nil, counters, err
	}
	opts, err := sw.Options(workers)
	if err != nil {
		return nil, counters, err
	}
	art := &Artifact{Schema: ArtifactSchema, Sweep: sw, Shard: *spec, Host: hostmeta.Collect()}
	rule = rule.WithDefaults()
	known := make(map[Cell]sim.Stats)
	folds := make(map[int64]*stopFold)
	for _, s := range m.Shards {
		for _, c := range s.Cells {
			if folds[c.X] == nil {
				folds[c.X] = &stopFold{}
			}
			folds[c.X].grid = append(folds[c.X].grid, c)
		}
	}
	for _, f := range folds {
		sortCellsByTrialLo(f.grid)
	}
	for _, c := range spec.Cells {
		st, loaded, err := env.loadCell(ctx, dir, sw, c)
		if err != nil {
			return nil, counters, err
		}
		switch {
		case loaded:
			counters.CellsLoaded++
		case rule.Enabled() && folds[c.X].satisfied(ctx, env, dir, sw, c, known, rule):
			counters.CellsStopped++
			continue
		default:
			points, err := sim.SweepRange(ctx, p, sw.InputState, []int64{c.X}, func(x int64) bool { return x >= n }, c.TrialLo, c.TrialHi, opts)
			if err != nil {
				return nil, counters, fmt.Errorf("cell %+v: %w", c, err)
			}
			st = points[0].Stats
			if dir != "" {
				ca := CellArtifact{Schema: ArtifactSchema, Sweep: sw, Cell: c, Stats: st, Host: art.Host}
				if err := env.writeSealedRetry(ctx, filepath.Join(dir, cellFileName(c)), &ca); err != nil {
					return nil, counters, err
				}
			}
			counters.CellsComputed++
		}
		known[c] = st
		art.Points = append(art.Points, PartialPoint{X: c.X, TrialLo: c.TrialLo, TrialHi: c.TrialHi, Stats: st})
	}
	return art, counters, nil
}
