package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"

	"repro/internal/faultfs"
	"repro/internal/hostmeta"
	"repro/internal/sim"
)

// CellArtifact is the resumable runner's unit of persisted progress:
// one cell's aggregated statistics, self-describing like the shard
// Artifact (it echoes the full sweep spec, so a partials directory
// can be checked against the plan it belongs to). Cell keys
// (x, trial range) are globally unique within a plan — cells tile the
// (size × trial) grid — so partials carry no shard id and survive
// re-sharding: a cell computed under a 4-shard plan resumes a 7-shard
// plan of the same sweep.
type CellArtifact struct {
	Schema int           `json:"schema"`
	Sweep  SweepSpec     `json:"sweep"`
	Cell   Cell          `json:"cell"`
	Stats  sim.Stats     `json:"stats"`
	Host   hostmeta.Meta `json:"host"`
	// Checksum is the content checksum ("crc32c:…") over the
	// document's canonical form; absent in pre-checksum artifacts,
	// which load on schema checks alone.
	Checksum string `json:"checksum,omitempty"`
}

// cellFileName is the canonical partial file name for a cell. The
// name is a pure function of the cell so concurrent attempts at the
// same cell collide on one path and the atomic rename makes the last
// writer win with a complete document either way.
func cellFileName(c Cell) string {
	return fmt.Sprintf("cell-x%d-t%d-%d.json", c.X, c.TrialLo, c.TrialHi)
}

// WriteFileAtomic writes data to path via a uniquely named temp file
// in the same directory and an atomic rename, so concurrent readers
// (and merge/resume scans) never observe a torn file and a killed
// writer leaves no partial document behind — at worst a stray .tmp.
// The temp file and the directory are fsynced before and after the
// rename: a host crash after WriteFileAtomic returns cannot surface
// an empty or torn document on ext4/NFS.
func WriteFileAtomic(path string, data []byte) error {
	return faultfs.AtomicWrite(faultfs.OS(), path, data)
}

// writeJSONAtomic marshals v (indented, trailing newline, the
// repo-wide artifact convention) and writes it atomically. Documents
// that carry a checksum field should go through writeSealedRetry
// instead so the checksum is stamped.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// parseCell integrity-checks and decodes one cell partial document
// for the executor: decodeCell's checks, then that it belongs to this
// sweep and is the cell its file name promises. Corruption comes back
// as *corruptError, telling the caller to quarantine and recompute
// (always safe: cells are pure functions of the sweep spec). A
// partial from a different sweep or an unknown schema stays a loud
// error: recomputing would mask an operator mixup (two plans sharing
// a partials dir) or a build mismatch until merge time or beyond.
func parseCell(data []byte, path string, sw SweepSpec, want Cell) (*CellArtifact, error) {
	ca, err := decodeCell(data, path)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(ca.Sweep, sw) {
		return nil, fmt.Errorf("%s: cell belongs to a different sweep (partials dir shared between plans?)", path)
	}
	if ca.Cell != want {
		return nil, &corruptError{reason: fmt.Sprintf("%s: cell is %+v, file name promises %+v", path, ca.Cell, want)}
	}
	return ca, nil
}

// decodeCell is the one cell-document decoder behind the executor's
// loader, ReadCellFile and DecodeCellLine: checksum verified, JSON
// decoded, schema known, trial range non-empty, statistics covering
// exactly that range. origin names the document in errors.
func decodeCell(data []byte, origin string) (*CellArtifact, error) {
	if _, err := verifyDoc(data, origin); err != nil {
		return nil, err
	}
	var ca CellArtifact
	if err := json.Unmarshal(data, &ca); err != nil {
		return nil, &corruptError{reason: fmt.Sprintf("%s: %v", origin, err)}
	}
	if ca.Schema != ArtifactSchema {
		return nil, fmt.Errorf("%s: cell schema %d, this build understands %d", origin, ca.Schema, ArtifactSchema)
	}
	c := ca.Cell
	if c.TrialLo < 0 || c.TrialHi <= c.TrialLo {
		return nil, &corruptError{reason: fmt.Sprintf("%s: invalid trial range [%d,%d)", origin, c.TrialLo, c.TrialHi)}
	}
	if ca.Stats.Trials != c.TrialHi-c.TrialLo {
		return nil, &corruptError{reason: fmt.Sprintf("%s: cell claims trials [%d,%d) but its stats aggregate %d trials",
			origin, c.TrialLo, c.TrialHi, ca.Stats.Trials)}
	}
	return &ca, nil
}

// RunResumable is Run with per-cell persistence in dir: cells whose
// partial artifacts already exist (and verify) are loaded instead of
// recomputed, and every freshly computed cell is persisted (sealed
// with a content checksum, fsynced, atomic rename) as soon as it and
// every cell before it have completed — a worker killed mid-shard
// loses at most the cells in flight (those holding one of its
// ≤ workers running trials, and any finished behind the oldest of
// them), and the next attempt (same process or a dispatcher retry on
// another host) picks up from the surviving cells. A corrupt partial
// (torn write, bit rot, checksum mismatch) is quarantined to
// corrupt/ with a reason file and its cell recomputed. An empty dir
// persists nothing.
//
// Positional seeds make resumed and fresh cells bit-identical, so the
// assembled Artifact carries exactly the Points of an uninterrupted
// Run (the Host stamp is the finishing process's). The returned
// Counters report loaded/computed cells, quarantines and transient
// retries.
func RunResumable(ctx context.Context, m *Manifest, shardID string, workers int, dir string) (*Artifact, Counters, error) {
	return RunResumableStop(ctx, m, shardID, workers, dir, sim.StopRule{}, nil)
}

// RunResumableStop is RunResumable with the anytime extensions: an
// optional stop rule and an optional streaming sink. Before computing
// a cell, the runner folds the point's gap-free prefix — from cells
// it already holds and, given a dir, from cells other shards
// persisted there — and skips the cell when the rule is already
// satisfied at an earlier boundary. The skip is purely an
// optimization: MergePartial truncates at the same canonical boundary
// whether or not the post-stop cells exist, so racing workers that
// compute a few extra cells never change the reported document. sink
// (may be nil) fires once per cell the shard contributes, loaded or
// computed, in plan order.
func RunResumableStop(ctx context.Context, m *Manifest, shardID string, workers int, dir string, rule sim.StopRule, sink sim.CellSink) (*Artifact, Counters, error) {
	var c Counters
	art, err := runResumable(ctx, m, shardID, workers, dir, 0, newQueueEnv(nil, 0, 0, &c), rule, sink)
	return art, c, err
}

// runResumable is the one cell executor behind Run, RunResumable*,
// Dispatch and ppserve's /v1/sweep. It walks the shard's cells in plan
// order in waves. Each cell of a wave is loaded as a verified partial
// when dir is set, skipped when the stop rule is already satisfied on
// the size's folded prefix, or else handed to the wave's one
// sim.SweepCells call, whose workers run the shard's trials on one
// pool. Without a stop rule a wave is every remaining cell; with one,
// a wave ends before the first cell whose size it already computes,
// so every skip decision folds exactly the cells it would fold cell by
// cell. Computed cells are persisted when dir is set and emitted, with
// the wave's loaded cells, to the artifact and the sink in plan order
// as the pool delivers them. With no dir it touches no file. env is
// the filesystem seam, retry policy and counters; failAfter > 0
// injects a fault for kill/resume tests and the CI dispatcher drill:
// the executor persists exactly the first failAfter fresh cells, then
// cancels the wave and returns errInjectedFailure, leaving the
// partials as a killed process would.
func runResumable(ctx context.Context, m *Manifest, shardID string, workers int, dir string, failAfter int, env *queueEnv, rule sim.StopRule, sink sim.CellSink) (*Artifact, error) {
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("shard: manifest schema %d, this build understands %d", m.Schema, ManifestSchema)
	}
	spec, err := m.Shard(shardID)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if err := env.retry(ctx, "mkdir partials", func() error {
			return env.fsys.MkdirAll(dir, 0o755)
		}); err != nil {
			return nil, err
		}
	}
	sw := m.Sweep
	p, n, err := sw.Build()
	if err != nil {
		return nil, err
	}
	opts, err := sw.Options(workers)
	if err != nil {
		return nil, err
	}
	expected := func(x int64) bool { return x >= n }

	art := &Artifact{
		Schema: ArtifactSchema,
		Sweep:  sw,
		Shard:  *spec,
		Host:   hostmeta.Collect(),
	}
	// Sequential stopping folds each size's cell grid (all shards,
	// trial order) as far as the cells this run holds or can read.
	rule = rule.WithDefaults()
	known := make(map[Cell]sim.Stats)
	folds := make(map[int64]*stopFold)
	if rule.Enabled() {
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
	}
	fresh := 0
	for i := 0; i < len(spec.Cells); {
		// Resolve the next wave (see the doc comment above): loaded and
		// stopped cells now, the rest through one pool call.
		var (
			wave      []PartialPoint // the cells the wave contributes
			compute   []Cell
			computeAt []int                  // wave index of each compute cell
			sizes     = make(map[int64]bool) // sizes the wave computes
		)
		for ; i < len(spec.Cells); i++ {
			c := spec.Cells[i]
			if rule.Enabled() && sizes[c.X] {
				break
			}
			st, loaded, err := env.loadCell(ctx, dir, sw, c)
			if err != nil {
				return nil, err
			}
			switch {
			case loaded:
				env.counters.CellsLoaded++
				known[c] = st
			case rule.Enabled() && folds[c.X].satisfied(ctx, env, dir, sw, c, known, rule):
				env.counters.CellsStopped++
				continue
			default:
				sizes[c.X] = true
				computeAt = append(computeAt, len(wave))
				compute = append(compute, c)
			}
			wave = append(wave, PartialPoint{X: c.X, TrialLo: c.TrialLo, TrialHi: c.TrialHi, Stats: st})
		}
		// emit contributes wave[:upTo] in plan order: to the artifact
		// and to the sink.
		emitted := 0
		emit := func(upTo int) {
			for ; emitted < upTo; emitted++ {
				pt := wave[emitted]
				art.Points = append(art.Points, pt)
				if sink != nil {
					sink(pt.X, pt.TrialLo, pt.TrialHi, pt.Stats)
				}
			}
		}
		if len(compute) > 0 {
			emit(computeAt[0])
			err := sim.SweepCells(ctx, p, sw.InputState, compute, expected, opts, func(k int, st sim.Stats) error {
				c, at := compute[k], computeAt[k]
				if dir != "" {
					ca := CellArtifact{Schema: ArtifactSchema, Sweep: sw, Cell: c, Stats: st, Host: art.Host}
					if err := env.writeSealedRetry(ctx, filepath.Join(dir, cellFileName(c)), &ca); err != nil {
						return err
					}
				}
				env.counters.CellsComputed++
				fresh++
				known[c] = st
				wave[at].Stats = st
				emit(at + 1)
				if failAfter > 0 && fresh >= failAfter {
					return fmt.Errorf("%w after %d cells", errInjectedFailure, fresh)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("shard %s: %w", shardID, err)
			}
		}
		emit(len(wave))
	}
	return art, nil
}

// loadCell returns cell c's verified statistics from the partials
// directory, if a partial is there. A corrupt partial is quarantined
// and reported absent, so the caller recomputes the cell; a foreign
// or unknown-schema partial is a loud error.
func (e *queueEnv) loadCell(ctx context.Context, dir string, sw SweepSpec, c Cell) (sim.Stats, bool, error) {
	ca, err := e.readCell(ctx, dir, sw, c)
	var corrupt *corruptError
	if errors.As(err, &corrupt) {
		return sim.Stats{}, false, e.quarantine(ctx, filepath.Join(dir, cellFileName(c)), corrupt.reason)
	}
	if err != nil || ca == nil {
		return sim.Stats{}, false, err
	}
	return ca.Stats, true, nil
}

// readCell reads and parses cell c's partial in dir; (nil, nil) when
// there is none, and always with no dir.
func (e *queueEnv) readCell(ctx context.Context, dir string, sw SweepSpec, c Cell) (*CellArtifact, error) {
	if dir == "" {
		return nil, nil
	}
	path := filepath.Join(dir, cellFileName(c))
	data, err := e.readRetry(ctx, path)
	if err != nil || data == nil {
		return nil, err
	}
	return parseCell(data, path, sw, c)
}

// sortCellsByTrialLo orders one size's cells in trial order, the fold
// order both the stopping fold here and MergePartial use.
func sortCellsByTrialLo(cs []Cell) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].TrialLo < cs[j].TrialLo })
}

// stopFold is the executor's stopping fold for one size: the gap-free
// prefix [0, next) of the size's cell grid folded in trial order. It
// stops advancing once the stop rule holds, so next is then the
// canonical stopping boundary.
type stopFold struct {
	grid    []Cell // the size's cells across all shards, in trial order
	folded  int    // grid[:folded] is in stats
	next    int
	stats   sim.Stats
	stopped bool
}

// satisfied reports whether the stop rule held at some cell boundary
// at or before c.TrialLo. It first extends the fold up to c.TrialLo
// with cells this run holds (known) or, given a dir, other shards
// persisted there. A hole in the prefix — a cell not yet computed,
// unreadable, or corrupt — pauses the fold until a later call:
// computing a post-stop cell is always safe (MergePartial truncates at
// the canonical boundary), whereas skipping on incomplete evidence
// could stall a sweep. Quarantining an observed-corrupt prefix cell is
// left to the shard that owns it.
func (f *stopFold) satisfied(ctx context.Context, env *queueEnv, dir string, sw SweepSpec, c Cell, known map[Cell]sim.Stats, rule sim.StopRule) bool {
	for !f.stopped && f.folded < len(f.grid) {
		pc := f.grid[f.folded]
		if pc.TrialLo != f.next || pc.TrialHi > c.TrialLo {
			break // gap in the grid, or past the cell
		}
		st, ok := known[pc]
		if !ok {
			ca, err := env.readCell(ctx, dir, sw, pc)
			if err != nil || ca == nil {
				break
			}
			st = ca.Stats
		}
		f.stats.Merge(st)
		f.folded++
		f.next = pc.TrialHi
		f.stopped = rule.Satisfied(&f.stats)
	}
	return f.stopped && f.next <= c.TrialLo
}

// errInjectedFailure marks a deliberately simulated worker death
// (ppsweep dispatch -fail-after-cells, kill/resume tests).
var errInjectedFailure = errors.New("injected worker failure")
