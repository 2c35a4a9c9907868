package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro/internal/faultfs"
	"repro/internal/sim"
)

// AnytimePoint is one size's result in an anytime merge: the folded
// prefix statistics plus completeness metadata. For a point whose
// every planned trial is folded and whose stop rule did not fire, the
// metadata fields are all omitted, so the point marshals byte-for-byte
// like a plain sim.SweepPoint — that is what makes the full-completion
// invariant (MergePartial over all cells == Merge, bytes) hold.
type AnytimePoint struct {
	X     int64     `json:"x"`
	Stats sim.Stats `json:"stats"`
	// TrialsDone/TrialsPlanned report completeness. They are set only
	// when the point is incomplete or stopped (TrialsPlanned > 0 marks
	// either); a complete, unstopped point omits both.
	TrialsDone    int `json:"trials_done,omitempty"`
	TrialsPlanned int `json:"trials_planned,omitempty"`
	// Stopped reports that the stop rule fired at TrialsDone: the
	// remaining planned trials are cancelled, not missing.
	Stopped bool `json:"stopped,omitempty"`
}

// Complete reports whether the point needs no further trials: every
// planned trial folded, or the stop rule fired.
func (pt *AnytimePoint) Complete() bool { return pt.TrialsPlanned == 0 || pt.Stopped }

// AnytimeMerged is the prefix-valid merge document: a Merged that
// additionally says how much of each point is in. With every cell
// present and no stop rule, it marshals byte-identically to Merged —
// the anytime path degrades to exactly today's artifact.
type AnytimeMerged struct {
	Schema int       `json:"schema"`
	Sweep  SweepSpec `json:"sweep"`
	// Partial is set when at least one point is incomplete (not
	// counting stopped points, whose remaining trials are cancelled by
	// rule, not absent by accident).
	Partial bool           `json:"partial,omitempty"`
	Points  []AnytimePoint `json:"points"`
}

// CollectPartial flattens shard artifacts and cell partials from any
// mix of sources into one cell-granularity point list, verifying they
// all belong to the same sweep and the same schema and that each
// point's accumulators cover its claimed range. The returned spec is
// the common sweep.
func CollectPartial(arts []*Artifact, cells []*CellArtifact) (SweepSpec, []PartialPoint, error) {
	var sw SweepSpec
	var have bool
	claim := func(s SweepSpec, schema int, origin string) error {
		if schema != ArtifactSchema {
			return fmt.Errorf("shard: %s has schema %d, this build understands %d", origin, schema, ArtifactSchema)
		}
		if !have {
			sw, have = s, true
			return nil
		}
		if !reflect.DeepEqual(s, sw) {
			return fmt.Errorf("shard: %s belongs to a different sweep: %+v vs %+v", origin, s, sw)
		}
		return nil
	}
	var points []PartialPoint
	for i, a := range arts {
		if err := claim(a.Sweep, a.Schema, fmt.Sprintf("artifact %d (shard %q)", i, a.Shard.ID)); err != nil {
			return SweepSpec{}, nil, err
		}
		points = append(points, a.Points...)
	}
	for i, ca := range cells {
		if err := claim(ca.Sweep, ca.Schema, fmt.Sprintf("cell partial %d (%+v)", i, ca.Cell)); err != nil {
			return SweepSpec{}, nil, err
		}
		points = append(points, PartialPoint{
			X: ca.Cell.X, TrialLo: ca.Cell.TrialLo, TrialHi: ca.Cell.TrialHi, Stats: ca.Stats,
		})
	}
	if !have {
		return SweepSpec{}, nil, errors.New("shard: nothing to merge")
	}
	return sw, points, nil
}

// MergePartial folds any subset of a sweep's cell-granularity partial
// points into a valid anytime document. Per size, it folds the
// maximal gap-free prefix of the cells in trial order (cells beyond
// the first gap wait for the gap to fill and are not folded), records
// trials_done/trials_planned, and — under an enabled rule — truncates
// the point at the first cell boundary where the rule is satisfied,
// marking it stopped and ignoring any later cells. Because the fold
// order is trial order and the truncation point is the first
// satisfying boundary, the reported document is a pure function of
// (spec, available cell set, rule): two hosts merging the same cells
// agree byte for byte, and with every cell present and no rule the
// output marshals byte-identically to Merge's.
//
// Exact duplicate cells (same size and range) are tolerated when
// their statistics agree bit for bit (the same cell computed twice by
// a re-sharded fleet) and rejected as corrupt otherwise; partially
// overlapping ranges are always an error — two plans were mixed.
func MergePartial(sw SweepSpec, points []PartialPoint, rule sim.StopRule) (*AnytimeMerged, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	rule = rule.WithDefaults()
	sizes := make(map[int64]bool, len(sw.Sizes))
	for _, x := range sw.Sizes {
		sizes[x] = true
	}
	byX := make(map[int64][]PartialPoint)
	for _, pt := range points {
		if !sizes[pt.X] {
			return nil, fmt.Errorf("shard: partial results for size %d, which the sweep does not contain", pt.X)
		}
		if pt.TrialLo < 0 || pt.TrialHi > sw.Trials || pt.TrialLo >= pt.TrialHi {
			return nil, fmt.Errorf("shard: size %d has invalid trial range [%d,%d) of %d trials",
				pt.X, pt.TrialLo, pt.TrialHi, sw.Trials)
		}
		if pt.Stats.Trials != pt.TrialHi-pt.TrialLo {
			return nil, fmt.Errorf("shard: size %d claims trials [%d,%d) but its stats aggregate %d trials",
				pt.X, pt.TrialLo, pt.TrialHi, pt.Stats.Trials)
		}
		byX[pt.X] = append(byX[pt.X], pt)
	}
	out := &AnytimeMerged{Schema: ArtifactSchema, Sweep: sw, Points: make([]AnytimePoint, 0, len(sw.Sizes))}
	for _, x := range sw.Sizes {
		parts := byX[x]
		sort.Slice(parts, func(i, j int) bool {
			if parts[i].TrialLo != parts[j].TrialLo {
				return parts[i].TrialLo < parts[j].TrialLo
			}
			return parts[i].TrialHi < parts[j].TrialHi
		})
		// Deduplicate exact-range repeats, verifying their stats agree;
		// any remaining overlap is a structural error.
		dedup := parts[:0]
		for _, pt := range parts {
			if n := len(dedup); n > 0 && dedup[n-1].TrialLo == pt.TrialLo && dedup[n-1].TrialHi == pt.TrialHi {
				if dedup[n-1].Stats != pt.Stats {
					return nil, &corruptError{reason: fmt.Sprintf(
						"size %d trials [%d,%d) delivered twice with disagreeing statistics (non-deterministic worker or bit rot)",
						pt.X, pt.TrialLo, pt.TrialHi)}
				}
				continue
			}
			dedup = append(dedup, pt)
		}
		pt := AnytimePoint{X: x}
		var prefix sim.Stats
		done := 0
		stopped := false
		for _, c := range dedup {
			if c.TrialLo < done {
				return nil, fmt.Errorf("shard: size %d trials [%d,%d) overlap an earlier range ending at %d (shard run twice, or plans mixed?)",
					x, c.TrialLo, c.TrialHi, done)
			}
			if c.TrialLo > done {
				break // gap: later cells wait for the prefix to fill
			}
			prefix.Merge(c.Stats)
			done = c.TrialHi
			if rule.Satisfied(&prefix) {
				stopped = true
				break // first satisfying boundary is the canonical stop
			}
		}
		pt.Stats = prefix
		if stopped {
			pt.TrialsDone, pt.TrialsPlanned, pt.Stopped = done, sw.Trials, true
		} else if done < sw.Trials {
			pt.TrialsDone, pt.TrialsPlanned = done, sw.Trials
			out.Partial = true
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// SealCellLine marshals one cell artifact compactly with its content
// checksum stamped: one NDJSON delta line of the /v1/sweep stream.
// The checksum is over the canonical form, so the compact line and
// the indented on-disk cell document of the same cell verify against
// the same sum.
func SealCellLine(ca *CellArtifact) ([]byte, error) {
	ca.Checksum = ""
	data, err := json.Marshal(ca)
	if err != nil {
		return nil, err
	}
	sum, err := ChecksumOf(data)
	if err != nil {
		return nil, err
	}
	ca.Checksum = sum
	return json.Marshal(ca)
}

// DecodeCellLine verifies and decodes one streamed delta line: the
// checksum must match, the schema must be known, and the statistics
// must cover the claimed (non-empty) trial range. It is the replay
// client's (and the stream tests') validity check for every delta.
func DecodeCellLine(data []byte) (*CellArtifact, error) {
	return decodeCell(data, "delta")
}

// ReadCellFile loads one cell-*.json partial on its own, outside the
// executor, with DecodeCellLine's checks. Unlike the executor's
// loader it does not compare against a plan — CollectPartial and
// MergePartial do the cross-source sweep checks.
func ReadCellFile(path string) (*CellArtifact, error) {
	data, err := faultfs.OS().ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCell(data, path)
}

// ScanPartialDir gathers the merge inputs living under one queue or
// partials directory: finished part-*.json shard artifacts in dir
// itself, and cell-*.json partials both in dir and under its
// partials/ subdirectory (the dispatcher's layout). Corrupt or
// foreign files fail loudly — an anytime merge must degrade by
// honestly reporting less completeness, not by silently dropping data
// an operator believes is there.
func ScanPartialDir(dir string) ([]*Artifact, []*CellArtifact, error) {
	var arts []*Artifact
	var cells []*CellArtifact
	scan := func(d string, wantCells, wantParts bool) error {
		entries, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			path := filepath.Join(d, name)
			switch {
			case wantParts && strings.HasPrefix(name, "part-") && strings.HasSuffix(name, ".json"):
				a, err := ReadArtifact(path)
				if err != nil {
					return err
				}
				arts = append(arts, a)
			case wantCells && strings.HasPrefix(name, "cell-") && strings.HasSuffix(name, ".json"):
				ca, err := ReadCellFile(path)
				if err != nil {
					return err
				}
				cells = append(cells, ca)
			}
		}
		return nil
	}
	if err := scan(dir, true, true); err != nil {
		return nil, nil, err
	}
	sub := filepath.Join(dir, "partials")
	if _, err := os.Stat(sub); err == nil {
		if err := scan(sub, true, false); err != nil {
			return nil, nil, err
		}
	}
	return arts, cells, nil
}
